"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark regenerates one evaluation artefact of the paper (a table
or a figure's data series).  Besides the pytest-benchmark timing, each
writes its reproduced rows to ``benchmarks/results/<name>.txt`` so the
paper-vs-measured comparison of EXPERIMENTS.md can be refreshed from disk.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.flows import DesignFlow, FlowEvent, parse_constraints
from repro.mccdma.casestudy import build_mccdma_design

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: The stage rows (``FlowResult.events``) of every flow built through
#: :func:`build_case_study_flow`; the session teardown aggregates them into
#: BENCH_flow_stages.json.
STAGE_EVENTS: list[FlowEvent] = []

CASE_STUDY_CONSTRAINTS = """
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


def write_result(name: str, text: str) -> None:
    """Persist a reproduced table/series and echo it to stdout.

    A smoke run passes a ``<name>_smoke`` name: ``.gitignore`` keeps those
    tables out of the repository, so the committed full-scale table stays.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n[{name}] -> {path}\n{text}")


def write_bench_json(name: str, payload: dict) -> pathlib.Path:
    """Persist a ``BENCH_*.json`` artefact and append its headline to history.

    A full-scale result lands twice: the full payload overwrites its
    ``BENCH_<name>.json`` (latest-state artefact, committed), and the one
    headline number appends to ``HISTORY.jsonl`` — the append-only series
    the ``repro bench-check`` regression gate reads.  Benchmarks without a
    registered headline (see :data:`repro.obs.history.HEADLINES`) still get
    their JSON; they just don't join the gate.

    A smoke result (``BENCH_<name>_smoke``) only writes its JSON, which is
    not committed (``.gitignore``): CI uploads it as a run artefact, and a
    local smoke run leaves the tracked results untouched.
    """
    from repro.obs.history import append_from_result

    RESULTS_DIR.mkdir(exist_ok=True)
    stem = name[: -len(".json")] if name.endswith(".json") else name
    path = RESULTS_DIR / f"{stem}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if not stem.endswith("_smoke"):
        bench = stem[len("BENCH_"):] if stem.startswith("BENCH_") else stem
        append_from_result(RESULTS_DIR / "HISTORY.jsonl", bench, payload)
    return path


def build_case_study_flow(prefetch: bool = True, reconfig_architecture=None):
    """The full design flow on the paper's case study."""
    design = build_mccdma_design()
    kwargs = dict(
        dynamic_constraints=parse_constraints(CASE_STUDY_CONSTRAINTS),
        prefetch=prefetch,
    )
    if reconfig_architecture is not None:
        kwargs["reconfig_architecture"] = reconfig_architecture
    flow = DesignFlow.from_design(design, **kwargs)
    flow.mapping.pin("bit_src", "DSP").pin("select", "DSP")
    result = flow.run()
    STAGE_EVENTS.extend(result.events)
    return design, result


@pytest.fixture(scope="session")
def case_study_flow():
    """Session-cached flow result for the MC-CDMA case study."""
    return build_case_study_flow()


@pytest.fixture(scope="session", autouse=True)
def _write_stage_timings():
    """Aggregate per-stage pipeline timings into BENCH_flow_stages.json.

    One row per Fig. 3 stage: how often it ran across the whole benchmark
    session, how often the artifact cache served it, and the wall time —
    the flow-profiling counterpart of the pytest-benchmark numbers."""
    yield
    if not STAGE_EVENTS:
        return
    stages: dict[str, dict] = {}
    for event in STAGE_EVENTS:
        row = stages.setdefault(
            event.stage, {"executions": 0, "cache_hits": 0, "total_s": 0.0}
        )
        row["cache_hits" if event.cache_hit else "executions"] += 1
        row["total_s"] += event.wall_time_s
    for row in stages.values():
        runs = row["executions"] + row["cache_hits"]
        row["mean_s"] = row["total_s"] / runs if runs else 0.0
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_flow_stages.json"
    path.write_text(json.dumps(stages, indent=2, sort_keys=True) + "\n")
