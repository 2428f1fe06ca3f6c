"""The parallel sweep engine: scheduling, fault tolerance, determinism.

The acceptance-critical properties live here:

- a ``--jobs 4`` sweep of the stock 3-device x 2-architecture grid leaves
  **byte-identical artifacts** on disk to a serial run;
- fault injection (a worker raising, hard-exiting, or sleeping past the
  timeout) shows the engine retries, then completes with the failed job
  reported — never deadlocking, never failing the sweep as a whole.

Worker processes are real spawn-context children, so this module leans on
small grids to keep wall time reasonable.
"""

import dataclasses

import pytest

from repro.dfg.library import default_library
from repro.exec import ParallelSweepEngine
from repro.fabric.device import XC2V1000
from repro.flows import flow_rows, parse_constraints, sweep_jobs_for_grid
from repro.mccdma.casestudy import build_mccdma_graph
from repro.mccdma.engine import LinkEngineConfig, LinkPointJob
from repro.mccdma.transmitter import MCCDMAConfig
from repro.obs import Tracer, use_tracer
from repro.reconfig import case_a_standalone, case_b_processor

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

PINS = (("bit_src", "DSP"), ("select", "DSP"))


def grid_jobs(devices=(XC2V1000,), architectures=()):
    return sweep_jobs_for_grid(
        build_mccdma_graph(),
        default_library(),
        devices=devices,
        architectures=architectures,
        dynamic_constraints=CONSTRAINTS,
        pins=PINS,
    )


def with_fault(job, job_id, fault):
    return dataclasses.replace(job, job_id=job_id, fault=fault)


def traced_run(engine, jobs):
    """Run ``jobs`` under a recording tracer: the report and the run's rows."""
    with use_tracer(Tracer()) as tracer:
        report = engine.run(jobs)
    return report, flow_rows(tracer.spans)


def sweep_kinds(rows):
    return [e.stage for e in rows if e.stage.startswith("sweep:")]


# -- construction ------------------------------------------------------------------


def test_engine_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ParallelSweepEngine(jobs=-1)
    with pytest.raises(ValueError):
        ParallelSweepEngine(retries=-1)
    with pytest.raises(ValueError):
        ParallelSweepEngine(timeout_s=0)


def test_engine_rejects_duplicate_job_ids():
    jobs = grid_jobs()
    with pytest.raises(ValueError, match="duplicate"):
        ParallelSweepEngine(jobs=0).run([jobs[0], jobs[0]])


def test_empty_sweep_completes():
    report = ParallelSweepEngine(jobs=0).run([])
    assert report.results == []
    assert report.failed == []


def test_sweep_event_kind_is_validated():
    engine = ParallelSweepEngine(jobs=0, sweep_name="s")
    with pytest.raises(ValueError, match="unknown sweep event kind"):
        engine._emit("not_a_kind")  # checked even when nothing records
    with use_tracer(Tracer()) as tracer:
        with pytest.raises(ValueError, match="unknown sweep event kind"):
            engine._emit("not_a_kind")
        engine._emit(
            "job_finished", job="j1", worker=3, attempt=2, wall_time_s=0.25, detail="x"
        )
    (span,) = tracer.spans
    assert span.name == "sweep:job_finished"
    assert span.duration_ns == 250_000_000  # lasts the step, ends at emit time
    (row,) = flow_rows(tracer.spans)
    assert row.stage == "sweep:job_finished"
    assert row.flow == "s/j1"
    assert row.metrics == {"worker": 3, "attempt": 2, "detail": "x"}
    assert not row.cache_hit and row.fingerprint == ""


# -- serial in-process mode (jobs=0) ------------------------------------------------


def test_serial_mode_runs_the_grid_and_streams_events(tmp_path):
    engine = ParallelSweepEngine(jobs=0, cache_dir=tmp_path / "cache", sweep_name="serial")
    report, rows = traced_run(
        engine, grid_jobs(architectures=(case_a_standalone(), case_b_processor()))
    )
    assert [r.ok for r in report.results] == [True, True]
    assert [r.job_id for r in report.results] == [
        "xc2v1000@case_a_standalone",
        "xc2v1000@case_b_processor",
    ]
    # The shared cache produced hits; its counts match the stage rows.
    assert report.cache_lookups() == 12  # 2 jobs x 6 stages
    assert report.cache_hits() > 0
    stages = [e for e in rows if e.fingerprint]
    assert len(stages) == 12
    assert sum(e.cache_hit for e in stages) == report.cache_hits()
    kinds = sweep_kinds(rows)
    assert kinds.count("sweep:job_finished") == 2
    assert kinds[-1] == "sweep:sweep_completed"


def test_cache_counts_come_from_the_jobs_caches():
    """A link point never touches the artifact cache, so its batch and point
    rows are not stage lookups."""
    job = LinkPointJob(
        job_id="p0", strategy="qpsk", snr_db=4.0, n_frames=8, seed_entropy=0,
        point_index=0, config=MCCDMAConfig(user_codes=(0,)),
        engine=LinkEngineConfig(batch_frames=4),
    )
    report, rows = traced_run(ParallelSweepEngine(jobs=0), [job])
    assert [e.stage for e in rows if e.stage.startswith("link:")] == [
        "link:batch", "link:batch", "link:point",
    ]
    assert report.cache_lookups() == 0 and report.cache_hits() == 0
    assert report.to_dict()["cache_lookups"] == 0
    completed = next(e for e in rows if e.stage == "sweep:sweep_completed")
    assert completed.metrics["cache_lookups"] == 0


def test_serial_mode_retries_then_reports_failure():
    jobs = grid_jobs()
    flaky = with_fault(jobs[0], "flaky", "fail_below:2")
    dead = with_fault(jobs[0], "dead", "raise")
    report = ParallelSweepEngine(jobs=0, retries=1).run([flaky, dead])
    by_id = {r.job_id: r for r in report.results}
    assert by_id["flaky"].ok and by_id["flaky"].attempts == 2
    assert not by_id["dead"].ok and by_id["dead"].attempts == 2
    assert "injected fault" in by_id["dead"].error


# -- parallel workers --------------------------------------------------------------


def test_parallel_sweep_matches_expected_points(tmp_path):
    engine = ParallelSweepEngine(
        jobs=2, timeout_s=300, retries=1, cache_dir=tmp_path / "cache"
    )
    jobs = grid_jobs(architectures=(case_a_standalone(), case_b_processor()))
    report, rows = traced_run(engine, jobs)
    # Results in submission order, independent of completion order.
    assert [r.job_id for r in report.results] == [j.job_id for j in jobs]
    assert all(r.ok for r in report.results)
    payload = report.results[0].payload
    assert payload["fits"] is True
    assert payload["makespan_ns"] > 0
    assert payload["reconfig_latency_ns"]["D1"] > 0
    # Worker stage rows came back with the workers' spans.
    stage_rows = [e for e in rows if not e.stage.startswith("sweep:")]
    assert {e.stage for e in stage_rows} >= {"adequation", "modular_backend"}
    assert len(stage_rows) == report.cache_lookups() == 12
    assert report.to_dict()["succeeded"] == 2


def test_parallel_faults_retry_then_report_without_deadlock(tmp_path):
    """A raising worker, a hard-crashing worker and a hung worker each fail
    only their own job; the sweep completes with partial results."""
    jobs = grid_jobs(architectures=(case_a_standalone(),))
    good = jobs[0]
    raiser = with_fault(good, "raiser", "raise")
    crasher = with_fault(good, "crasher", "exit")
    hung = with_fault(good, "hung", "hang")
    engine = ParallelSweepEngine(
        jobs=2, timeout_s=15, retries=1, backoff_s=0.01, cache_dir=tmp_path / "cache"
    )
    report, rows = traced_run(engine, [good, raiser, crasher, hung])
    by_id = {r.job_id: r for r in report.results}
    assert len(report.results) == 4  # nothing lost
    assert by_id[good.job_id].ok
    assert not by_id["raiser"].ok and by_id["raiser"].attempts == 2
    assert "injected fault" in by_id["raiser"].error
    assert not by_id["crasher"].ok and "crashed" in by_id["crasher"].error
    assert not by_id["hung"].ok and "timed out" in by_id["hung"].error
    kinds = sweep_kinds(rows)
    assert "sweep:job_retried" in kinds
    assert "sweep:job_timeout" in kinds
    assert "sweep:worker_crashed" in kinds
    assert kinds[-1] == "sweep:sweep_completed"


def test_flaky_job_succeeds_on_parallel_retry(tmp_path):
    jobs = grid_jobs(architectures=(case_a_standalone(),))
    flaky = with_fault(jobs[0], "flaky", "fail_below:2")
    engine = ParallelSweepEngine(
        jobs=1, timeout_s=300, retries=2, backoff_s=0.01, cache_dir=tmp_path / "cache"
    )
    report = engine.run([flaky])
    (result,) = report.results
    assert result.ok and result.attempts == 2
    assert result.payload["fits"] is True


# -- the acceptance criterion: byte-identical artifacts ----------------------------


def stock_grid_jobs():
    from repro.fabric.device import XC2V2000, XC2V3000

    return sweep_jobs_for_grid(
        build_mccdma_graph(),
        default_library(),
        devices=(XC2V1000, XC2V2000, XC2V3000),
        architectures=(case_a_standalone(), case_b_processor()),
        dynamic_constraints=CONSTRAINTS,
        pins=PINS,
    )


def artifact_bytes(cache_dir):
    return {p.name: p.read_bytes() for p in cache_dir.glob("*.pkl")}


def test_parallel_artifacts_byte_identical_to_serial(tmp_path):
    """Stock 3-device x 2-architecture grid, --jobs 4 vs serial: the shared
    disk caches must contain the same entries with the same bytes."""
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    serial = ParallelSweepEngine(jobs=0, cache_dir=serial_dir).run(stock_grid_jobs())
    parallel = ParallelSweepEngine(
        jobs=4, timeout_s=300, retries=1, cache_dir=parallel_dir
    ).run(stock_grid_jobs())
    assert all(r.ok for r in serial.results)
    assert all(r.ok for r in parallel.results)
    serial_artifacts = artifact_bytes(serial_dir)
    parallel_artifacts = artifact_bytes(parallel_dir)
    assert set(serial_artifacts) == set(parallel_artifacts)
    assert serial_artifacts == parallel_artifacts  # byte-identical payloads
    # And the reported numbers agree point by point.
    for a, b in zip(serial.results, parallel.results):
        assert a.job_id == b.job_id
        assert a.payload["makespan_ns"] == b.payload["makespan_ns"]
        assert a.payload["reconfig_latency_ns"] == b.payload["reconfig_latency_ns"]
