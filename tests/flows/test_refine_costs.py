"""Both adequation passes of a flow schedule on one cost model.

The refine pass schedules on the first pass's model with the measured
latencies (``CostModel.with_latencies``), reusing the tables the first pass
built.  Its result must be the one a fresh ``adequate(...,
reconfig_ns=measured)`` gives, byte for byte, whether the first pass ran or
was served from a disk cache.
"""

import pickle

from repro.aaa import adequate
from repro.cli import CASE_STUDY_CONSTRAINTS
from repro.flows import ArtifactCache, DesignFlow, parse_constraints
from repro.flows import flow as flow_module
from repro.mccdma.casestudy import build_mccdma_design


def case_study_flow(cache=None) -> DesignFlow:
    """The flow ``repro flow`` runs."""
    flow = DesignFlow.from_design(
        build_mccdma_design(),
        dynamic_constraints=parse_constraints(CASE_STUDY_CONSTRAINTS),
        cache=cache,
    )
    flow.mapping.pin("bit_src", "DSP").pin("select", "DSP")
    return flow


def fresh_refine(flow, result):
    """The refine pass on a model of its own, as the flow ran it before."""
    return adequate(
        flow.graph,
        flow.board.architecture.device_neutral(),
        flow.library,
        constraints=flow.mapping,
        scheduler=flow.scheduler,
        reconfig_ns=dict(result.modular.reconfig_latency_ns),
        validate=False,
        prefetch=flow.prefetch,
    )


def test_cold_refine_pass_reuses_the_first_pass_tables(monkeypatch):
    passes = []

    def recording_adequate(*args, **kwargs):
        passes.append(adequate(*args, **kwargs))
        return passes[-1]

    monkeypatch.setattr(flow_module, "adequate", recording_adequate)
    flow = case_study_flow()
    result = flow.run()
    first, refined = passes
    assert refined is result.adequation
    assert first.costs.reconfig_ns == {}
    assert refined.costs.reconfig_ns == dict(result.modular.reconfig_latency_ns)
    assert refined.costs.tables is first.costs.tables
    monkeypatch.undo()
    fresh = fresh_refine(flow, result)
    assert pickle.dumps(refined) == pickle.dumps(fresh)
    assert refined.scheduler_stats == fresh.scheduler_stats


def test_refine_pass_after_a_first_pass_from_disk(tmp_path):
    cold = case_study_flow(ArtifactCache(disk_dir=tmp_path)).run()
    keys = {e.stage: e.fingerprint for e in cold.events}
    refined_entry = tmp_path / f"{keys['adequation_refine']}.pkl"
    cold_bytes = refined_entry.read_bytes()
    for entry in tmp_path.glob("*.pkl"):
        if entry.stem not in (keys["modelisation"], keys["adequation"]):
            entry.unlink()
    flow = case_study_flow(ArtifactCache(disk_dir=tmp_path))
    result = flow.run()
    assert [e.cache_hit for e in result.events] == [True, True, False, False, False, False]
    fresh = fresh_refine(flow, result)
    # the cache writes the pickle of the result the refine pass returned
    assert refined_entry.read_bytes() == cold_bytes == pickle.dumps(fresh)
    assert result.adequation.scheduler_stats == fresh.scheduler_stats
