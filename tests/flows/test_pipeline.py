"""The staged flow pipeline: cache correctness and observability.

Covers the content-addressed :class:`ArtifactCache` (LRU + disk tier),
fingerprint stability across processes, key invalidation when any flow
input changes, warm-run cache hits for the full case study, the shared
cache of :func:`explore_design_space`, the stage rows a traced flow
records, and the no-stdout guarantee of library code.
"""

import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from repro.dfg.generators import layered_random_graph
from repro.dfg.library import DSP_CLASS, FPGA_CLASS, OperationLibrary, default_library
from repro.fabric.device import XC2V1000
from repro.flows import (
    STAGE_NAMES,
    ArtifactCache,
    DesignFlow,
    explore_design_space,
    flow_rows,
    parse_constraints,
)
from repro.obs import Tracer, use_tracer
from repro.aaa.scheduler import SynDExScheduler
from repro.arch.boards import sundance_board
from repro.mccdma.casestudy import build_mccdma_design, build_mccdma_graph

CONSTRAINTS = """
[module mod_qpsk]
region    = D1
operation = mod_qpsk

[module mod_qam16]
region    = D1
operation = mod_qam16

[region D1]
sharing   = true
exclusive = mod_qpsk, mod_qam16
"""


def case_study_flow(**overrides):
    design = build_mccdma_design()
    kwargs = dict(dynamic_constraints=parse_constraints(CONSTRAINTS))
    kwargs.update(overrides)
    flow = DesignFlow.from_design(design, **kwargs)
    flow.mapping.pin("bit_src", "DSP").pin("select", "DSP")
    return flow


def static_stage_keys(flow):
    """Derivation keys of the stages whose keys don't need run artefacts."""
    flow._apply_dynamic_constraints()
    pipeline = flow.build_pipeline()
    by_name = {s.name: s for s in pipeline.stages}
    return {
        name: by_name[name].key({})
        for name in ("modelisation", "adequation", "vhdl_generation", "modular_backend")
    }


# -- ArtifactCache -----------------------------------------------------------------


def test_cache_lru_eviction_and_stats():
    cache = ArtifactCache(max_entries=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refreshes "a": "b" is now the LRU entry
    cache.put("c", 3)
    assert len(cache) == 2
    assert cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3
    assert cache.stats.evictions == 1
    assert cache.stats.misses == 1
    assert cache.stats.hits == 3
    assert 0 < cache.stats.hit_rate() < 1


def test_cache_disk_tier_survives_process_state(tmp_path):
    first = ArtifactCache(disk_dir=tmp_path)
    first.put("key1", {"makespan": 42})
    # A brand-new cache over the same directory starts warm.
    second = ArtifactCache(disk_dir=tmp_path)
    assert second.get("key1") == {"makespan": 42}
    assert second.stats.hits == 1
    assert second.get("missing") is None


def test_cache_rejects_bad_capacity():
    with pytest.raises(ValueError):
        ArtifactCache(max_entries=0)


# -- fingerprint stability ---------------------------------------------------------

_FINGERPRINT_SNIPPET = """
from repro.dfg.library import default_library
from repro.flows.pipeline import fingerprint_architecture, fingerprint_graph, fingerprint_library
from repro.arch.boards import sundance_board
from repro.mccdma.casestudy import build_mccdma_graph

print(fingerprint_graph(build_mccdma_graph()))
print(fingerprint_architecture(sundance_board().architecture))
print(fingerprint_library(default_library()))
"""


def test_fingerprints_stable_across_processes():
    """Digests must not depend on process-local state (hash seed, id)."""
    from repro.flows.pipeline import (
        fingerprint_architecture,
        fingerprint_graph,
        fingerprint_library,
    )

    local = [
        fingerprint_graph(build_mccdma_graph()),
        fingerprint_architecture(sundance_board().architecture),
        fingerprint_library(default_library()),
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _FINGERPRINT_SNIPPET],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONHASHSEED": "random"},
        check=True,
    )
    assert proc.stdout.split() == local


def test_stage_keys_reproducible_between_flow_objects():
    assert static_stage_keys(case_study_flow()) == static_stage_keys(case_study_flow())


# -- key invalidation --------------------------------------------------------------


def test_graph_change_invalidates_from_modelisation():
    board = sundance_board()
    lib = default_library()
    k1 = static_stage_keys(
        DesignFlow(graph=layered_random_graph(4, 3, seed=1), board=board, library=lib)
    )
    k2 = static_stage_keys(
        DesignFlow(graph=layered_random_graph(4, 3, seed=2), board=sundance_board(), library=lib)
    )
    assert all(k1[name] != k2[name] for name in k1)


def test_library_change_invalidates_adequation():
    def library(fir_cycles):
        lib = OperationLibrary()
        for kind, cycles in (("src", {DSP_CLASS: 100}), ("fir", {FPGA_CLASS: fir_cycles})):
            lib.define(kind, cycles, {"luts": 10, "ffs": 10})
        return lib

    graph = layered_random_graph(3, 2, seed=5)
    flows = [
        DesignFlow(graph=graph, board=sundance_board(), library=library(c)) for c in (300, 301)
    ]
    k1, k2 = (static_stage_keys(f) for f in flows)
    assert k1["modelisation"] != k2["modelisation"]  # validate_graph reads the library
    assert k1["adequation"] != k2["adequation"]


def test_scheduler_and_prefetch_change_invalidates_adequation_only():
    base = static_stage_keys(case_study_flow())
    other_sched = static_stage_keys(case_study_flow(scheduler=SynDExScheduler))
    no_prefetch = static_stage_keys(case_study_flow(prefetch=False))
    for changed in (other_sched, no_prefetch):
        assert changed["modelisation"] == base["modelisation"]
        assert changed["adequation"] != base["adequation"]
        assert changed["vhdl_generation"] != base["vhdl_generation"]  # downstream


def test_dynamic_constraints_change_invalidates_modelisation():
    relaxed = parse_constraints(CONSTRAINTS.replace("loading   = runtime", ""))
    startup = parse_constraints(
        CONSTRAINTS.replace("operation = mod_qpsk", "operation = mod_qpsk\nloading   = startup")
    )
    k1 = static_stage_keys(case_study_flow(dynamic_constraints=relaxed))
    k2 = static_stage_keys(case_study_flow(dynamic_constraints=startup))
    assert k1["modelisation"] != k2["modelisation"]


def test_device_change_keeps_upstream_keys():
    """Swapping the FPGA part must invalidate only the modular back-end."""
    design = build_mccdma_design()
    small = case_study_flow()
    big = case_study_flow()
    big.board = sundance_board(device=XC2V1000)
    k_small, k_big = static_stage_keys(small), static_stage_keys(big)
    assert k_small["modelisation"] == k_big["modelisation"]
    assert k_small["adequation"] == k_big["adequation"]
    assert k_small["vhdl_generation"] == k_big["vhdl_generation"]
    assert k_small["modular_backend"] != k_big["modular_backend"]
    assert design.board.name == big.board.name  # same platform, different part


# -- warm runs over the full case study --------------------------------------------


def test_warm_rerun_hits_every_stage():
    cache = ArtifactCache()
    cold = case_study_flow(cache=cache).run()
    assert [e.stage for e in cold.events] == list(STAGE_NAMES)
    assert not any(e.cache_hit for e in cold.events)

    result = case_study_flow(cache=cache).run()
    assert [e.stage for e in result.events] == list(STAGE_NAMES)
    assert all(e.cache_hit for e in result.events)
    assert result.makespan_ns > 0


def test_input_change_invalidates_warm_cache_at_runtime():
    cache = ArtifactCache()
    case_study_flow(cache=cache).run()
    result = case_study_flow(cache=cache, prefetch=False).run()
    hit = {e.stage: e.cache_hit for e in result.events}
    assert hit["modelisation"]
    assert not hit["adequation"]
    assert not hit["adequation_refine"]


# -- shared cache across the design space ------------------------------------------


def sweep(share_cache):
    """The sweep's points and its stage executions (cache misses) per stage."""
    with use_tracer(Tracer()) as tracer:
        points = explore_design_space(
            build_mccdma_graph(),
            default_library(),
            dynamic_constraints=parse_constraints(CONSTRAINTS),
            configure_flow=lambda flow: flow.mapping.pin("bit_src", "DSP").pin("select", "DSP"),
            share_cache=share_cache,
        )
    return points, Counter(e.stage for e in flow_rows(tracer.spans) if not e.cache_hit)


def test_designspace_shared_cache_halves_adequation_executions():
    """Acceptance criterion: >= 2x fewer adequation executions when shared."""
    cold_points, cold = sweep(share_cache=False)
    warm_points, warm = sweep(share_cache=True)
    assert len(cold_points) == len(warm_points) == 6  # stock 3-device x 2-arch grid
    assert cold["adequation"] >= 2 * warm["adequation"]
    assert warm["adequation"] == 1  # one first-pass adequation for the sweep
    assert warm["vhdl_generation"] == 1
    assert warm["modelisation"] == 1
    # Identical results either way.
    for a, b in zip(cold_points, warm_points):
        assert (a.device, a.architecture, a.makespan_ns) == (b.device, b.architecture, b.makespan_ns)
        assert a.reconfig_latency_ns == b.reconfig_latency_ns


# -- observability -----------------------------------------------------------------


def test_library_code_writes_nothing_to_stdout(capsys):
    """Runs narrate themselves as spans, never as prints: a full flow run
    must leave stdout and stderr untouched."""
    case_study_flow().run()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ""


def test_from_span_rebuilds_every_stage_row_of_a_traced_flow():
    """Each ``stage:`` span carries its row: rebuilt with FlowEvent.from_span
    it equals the pipeline's own row, wall time aside."""

    def without_wall_time(event):
        row = event.to_dict()
        del row["wall_time_s"]
        return row

    cache = ArtifactCache()
    for _ in range(2):  # cold, then warm: misses and hits
        with use_tracer(Tracer()) as tracer:
            result = case_study_flow(cache=cache).run()
        rows = flow_rows(tracer.spans)
        assert [without_wall_time(e) for e in rows] == [
            without_wall_time(e) for e in result.events
        ]
        assert [e.stage for e in rows] == list(STAGE_NAMES)
        assert all(len(e.fingerprint) == 64 for e in rows)
    assert all(e.cache_hit for e in rows)


def test_stage_metrics_record_numeric_values_as_sketches():
    """With a telemetry hub installed, each numeric stage metric becomes one
    sketch observation per run (a clock frequency is never summed into a
    counter); strings, booleans and negatives are skipped."""
    from repro.flows.pipeline import FlowPipeline, Stage
    from repro.obs import use_telemetry

    metrics = {"loads": 3, "name": "D1", "flag": True, "delta": -2, "clock_mhz": 66.0}
    stage = Stage("s", lambda _: "key", lambda _: "artefact", lambda _: metrics)
    with use_telemetry() as hub:
        for _ in range(2):
            FlowPipeline([stage]).run()
    snapshot = hub.store("run").snapshot()
    assert sorted(k for k in snapshot if k.startswith("stage.")) == [
        "stage.s.clock_mhz", "stage.s.loads",
    ]
    clock = snapshot["stage.s.clock_mhz"]
    assert clock["type"] == "quantile" and clock["count"] == 2
    assert clock["min"] == clock["max"] == clock["p50"] == 66.0
    assert snapshot["flow.stages_total"] == {"type": "counter", "value": 2}
    assert snapshot["flow.stage_cache_misses"] == {"type": "counter", "value": 2}
    assert snapshot["flow.stage_seconds"]["count"] == 2


def test_flow_result_to_dict_is_json_safe():
    result = case_study_flow().run()
    payload = json.loads(json.dumps(result.to_dict()))
    assert payload["graph"] == "mccdma_tx"
    assert payload["regions"]["D1"]["reconfig_latency_ns"] > 0
    assert len(payload["stages"]) == len(STAGE_NAMES)
    assert payload["makespan_ns"] == result.makespan_ns
