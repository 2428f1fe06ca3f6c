"""Trace-context propagation across the sweep engine's process boundary.

The acceptance property of the observability layer: one traced
``ParallelSweepEngine`` run yields a *single* span tree — worker-side stage
spans parent (transitively) under the job span the engine opened, worker
run totals merge into the ambient telemetry hub, and the exported file
passes the Chrome-trace validator.
"""

import dataclasses

from repro.dfg.library import default_library
from repro.exec import ParallelSweepEngine
from repro.fabric.device import XC2V1000, XC2V2000
from repro.flows import parse_constraints, sweep_jobs_for_grid
from repro.mccdma.casestudy import build_mccdma_graph
from repro.obs import (
    Tracer,
    chrome_trace,
    use_telemetry,
    use_tracer,
    validate_chrome_trace,
)

CONSTRAINTS = parse_constraints("""
[module mod_qpsk]
region    = D1
operation = mod_qpsk

[module mod_qam16]
region    = D1
operation = mod_qam16

[region D1]
sharing   = true
exclusive = mod_qpsk, mod_qam16
""")


def grid_jobs(devices=(XC2V1000,), simulate=0):
    jobs = sweep_jobs_for_grid(
        build_mccdma_graph(),
        default_library(),
        devices=devices,
        architectures=(),
        dynamic_constraints=CONSTRAINTS,
        pins=(("bit_src", "DSP"), ("select", "DSP")),
    )
    if simulate:
        jobs = [
            dataclasses.replace(j, simulate_iterations=simulate, simulate_policy="on_select")
            for j in jobs
        ]
    return jobs


def run_traced(jobs, n_workers):
    tracer = Tracer()
    with use_tracer(tracer), use_telemetry() as hub:
        report = ParallelSweepEngine(jobs=n_workers, sweep_name="traced").run(jobs)
    return report, tracer, hub


def ancestors(span, by_id):
    chain = []
    parent = span.context.parent_id
    while parent is not None:
        node = by_id[parent]
        chain.append(node.name)
        parent = node.context.parent_id
    return chain


def test_parallel_sweep_produces_single_connected_trace():
    jobs = grid_jobs((XC2V1000, XC2V2000), simulate=4)
    report, tracer, hub = run_traced(jobs, 2)
    assert not report.failed

    spans = tracer.spans
    assert {s.context.trace_id for s in spans} == {tracer.trace_id}
    by_id = {s.context.span_id: s for s in spans}

    # Worker-side stage spans chain up through flow -> attempt -> job -> sweep.
    stage_spans = [s for s in spans if s.name.startswith("stage:")]
    assert stage_spans and all(s.process.startswith("worker-") for s in stage_spans)
    for span in stage_spans:
        chain = ancestors(span, by_id)
        assert chain[-1].startswith("sweep:")
        assert any(name.startswith("job:") for name in chain)
        assert any(name.startswith("attempt:") for name in chain)

    # Per-region reconfiguration activity from the in-worker simulations.
    load_spans = [s for s in spans if s.clock == "sim" and
                  s.attributes.get("kind") in ("load", "prefetch")]
    assert load_spans
    assert {s.attributes["region"] for s in load_spans} == {"D1"}

    # Worker run totals crossed the pipe and merged into the ambient hub.
    snapshot = hub.store("run").snapshot()
    assert snapshot["flow.stages_total"]["value"] >= len(jobs) * 6
    assert "reconfig.demand_requests" in snapshot
    assert snapshot["sweep.jobs_total"]["value"] == len(jobs)

    # The exported Chrome trace, counter lanes included, passes the CI validator.
    assert validate_chrome_trace(chrome_trace(spans, telemetry=hub)) == []


def test_serial_sweep_traces_without_workers():
    report, tracer, _ = run_traced(grid_jobs(), 0)
    assert not report.failed
    by_id = {s.context.span_id: s for s in tracer.spans}
    stage_spans = [s for s in tracer.spans if s.name.startswith("stage:")]
    assert stage_spans
    for span in stage_spans:
        assert ancestors(span, by_id)[-1].startswith("sweep:")
    assert validate_chrome_trace(chrome_trace(tracer.spans)) == []


def test_untraced_sweep_records_nothing():
    report = ParallelSweepEngine(jobs=0, sweep_name="quiet").run(grid_jobs())
    assert not report.failed  # no ambient tracer: the engine stays silent
