"""The warm worker pool: reuse, crash respawn accounting, cache resets.

These are the regression tests for the parallel-sweep slowdown fix:

- a second ``run()`` on the same engine reuses the warm workers (no
  respawn, ``pool_reused`` narrated);
- results and artifacts stay byte-identical to serial no matter what
  order jobs are submitted in (pull dispatch must not leak scheduling
  into results);
- a hung job degrades exactly that job; the pool survives and the next
  run still works;
- a worker dying *between* a failed attempt and its redispatch (the
  ``raise_exit`` fault) is respawned and the retry still lands — the
  crash-accounting case where an untracked job would deadlock the engine;
- span ids stay unique when one worker serves many traced runs.

Worker processes are real spawn-context children; the cheap compute-bound
:class:`~repro.mccdma.engine.LinkPointJob` keeps wall time reasonable.
"""

import dataclasses
import random

import pytest

from repro.dfg.library import default_library
from repro.exec import ParallelSweepEngine, WorkerPool
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


def link_jobs(n, frames=6, faults=()):
    """``n`` cheap compute-bound jobs; ``faults`` maps index -> fault spec."""
    faults = dict(faults)
    config = MCCDMAConfig(user_codes=(0,))
    engine = LinkEngineConfig(batch_frames=8)
    return [
        LinkPointJob(
            job_id=f"pt{i:02d}",
            strategy="qpsk",
            snr_db=6.0 + i,
            n_frames=frames,
            seed_entropy=0,
            point_index=i,
            config=config,
            engine=engine,
            fault=faults.get(i),
        )
        for i in range(n)
    ]


def traced_kinds(engine, jobs):
    """Run ``jobs`` under a recording tracer: the report and its ``sweep:*``
    step names in recording order."""
    with use_tracer(Tracer()) as tracer:
        report = engine.run(jobs)
    return report, [e.stage for e in flow_rows(tracer.spans) if e.stage.startswith("sweep:")]


# -- pool mechanics ----------------------------------------------------------------


def test_pool_rejects_bad_size_and_double_borrow():
    with pytest.raises(ValueError):
        WorkerPool(0)
    pool = WorkerPool(1)
    pool.acquire("first")
    with pytest.raises(RuntimeError, match="one pool serves one run"):
        pool.acquire("second")
    pool.release()
    pool.acquire("third")
    pool.release()
    pool.close()


def test_closed_pool_refuses_spawn_and_close_is_idempotent():
    pool = WorkerPool(1)
    pool.close()
    pool.close()
    with pytest.raises(RuntimeError, match="closed"):
        pool.spawn()


def test_engine_ignores_jobs_param_when_pool_given():
    with WorkerPool(2, name="sized") as pool:
        engine = ParallelSweepEngine(jobs=7, pool=pool)
        assert engine.n_workers == 2


# -- warm reuse --------------------------------------------------------------------


def test_second_run_reuses_warm_workers_without_respawn():
    engine = ParallelSweepEngine(jobs=2, timeout_s=120, sweep_name="warm")
    try:
        first, kinds = traced_kinds(engine, link_jobs(4))
        assert all(r.ok for r in first.results)
        assert kinds.count("sweep:worker_spawned") == 2
        assert "sweep:pool_reused" not in kinds

        second, kinds = traced_kinds(engine, link_jobs(4))
        assert all(r.ok for r in second.results)
        assert "sweep:pool_reused" in kinds
        assert "sweep:worker_spawned" not in kinds  # nothing respawned
        assert engine.pool.spawned_total == 2  # lifetime: exactly one spawn each
    finally:
        engine.close()
    assert engine.pool is None  # close() releases the owned pool


def test_shared_pool_serves_many_engines():
    with WorkerPool(2, name="shared") as pool:
        for sweep in ("alpha", "beta", "gamma"):
            engine = ParallelSweepEngine(pool=pool, timeout_s=120, sweep_name=sweep)
            report = engine.run(link_jobs(3))
            assert all(r.ok for r in report.results)
        assert pool.spawned_total == 2


def test_parallel_results_identical_to_serial_under_shuffled_order():
    """Pull-based dispatch must not leak scheduling order into results:
    a shuffled submission returns the shuffled order's results, with every
    payload field-identical to the serial run of the same point."""
    jobs = link_jobs(6)
    serial = ParallelSweepEngine(jobs=0).run(jobs)
    shuffled = list(jobs)
    random.Random(7).shuffle(shuffled)
    with ParallelSweepEngine(jobs=2, timeout_s=120) as engine:
        parallel = engine.run(shuffled)
    assert [r.job_id for r in parallel.results] == [j.job_id for j in shuffled]
    serial_by_id = {r.job_id: r.payload for r in serial.results}
    for result in parallel.results:
        assert result.ok
        assert result.payload["result"] == serial_by_id[result.job_id]["result"]


def test_shuffled_design_sweep_artifacts_byte_identical_to_serial(tmp_path):
    """The design-flow grid, submitted shuffled on the pool, leaves the
    same artifact bytes on disk as an in-order serial run."""
    def grid():
        return sweep_jobs_for_grid(
            build_mccdma_graph(),
            default_library(),
            devices=(XC2V1000,),
            architectures=(case_a_standalone(), case_b_processor()),
            dynamic_constraints=CONSTRAINTS,
            pins=PINS,
        )

    serial_dir = tmp_path / "serial"
    pool_dir = tmp_path / "pool"
    serial = ParallelSweepEngine(jobs=0, cache_dir=serial_dir).run(grid())
    shuffled = grid()
    random.Random(3).shuffle(shuffled)
    with ParallelSweepEngine(jobs=2, timeout_s=300, cache_dir=pool_dir) as engine:
        parallel = engine.run(shuffled)
    assert all(r.ok for r in serial.results) and all(r.ok for r in parallel.results)
    serial_bytes = {p.name: p.read_bytes() for p in serial_dir.glob("*.pkl")}
    pool_bytes = {p.name: p.read_bytes() for p in pool_dir.glob("*.pkl")}
    assert serial_bytes == pool_bytes


# -- fault tolerance on the warm pool ----------------------------------------------


def test_hang_degrades_one_job_and_pool_survives_for_next_run():
    engine = ParallelSweepEngine(
        jobs=2, timeout_s=4, retries=0, backoff_s=0.01, sweep_name="hangs"
    )
    try:
        jobs = link_jobs(4, faults={1: "hang"})
        report, kinds = traced_kinds(engine, jobs)
        by_id = {r.job_id: r for r in report.results}
        assert len(report.results) == 4
        assert not by_id["pt01"].ok and "timed out" in by_id["pt01"].error
        for job_id in ("pt00", "pt02", "pt03"):
            assert by_id[job_id].ok, by_id[job_id].error
        assert "sweep:job_timeout" in kinds

        # The pool is still serviceable: the next run completes cleanly.
        again = engine.run(link_jobs(3))
        assert all(r.ok for r in again.results)
        assert engine.pool.warm_count == 2
    finally:
        engine.close()


def test_worker_death_between_failed_attempt_and_redispatch_is_respawned():
    """The ``raise_exit`` fault: the worker reports the failed attempt
    (the engine schedules a backoff retry) and then dies.  The engine must
    notice the crash, respawn into the warm pool, and run the retry there
    — nothing may be left waiting on a job no live worker owns."""
    engine = ParallelSweepEngine(
        jobs=1, timeout_s=120, retries=1, backoff_s=0.05, sweep_name="respawn"
    )
    try:
        report, kinds = traced_kinds(engine, link_jobs(2, faults={0: "raise_exit"}))
        by_id = {r.job_id: r for r in report.results}
        assert len(report.results) == 2  # nothing lost
        assert by_id["pt00"].ok and by_id["pt00"].attempts == 2
        assert by_id["pt01"].ok
        assert "sweep:job_retried" in kinds
        assert "sweep:worker_crashed" in kinds
        assert "sweep:worker_respawned" in kinds
    finally:
        engine.close()


def test_crashed_worker_unstarted_jobs_keep_their_attempts():
    """Jobs queued behind a crash that never started must not burn an
    attempt: with retries=0 they would otherwise be reported failed."""
    engine = ParallelSweepEngine(
        jobs=1, timeout_s=120, retries=1, backoff_s=0.01, prefetch_depth=3,
        sweep_name="prefetched",
    )
    try:
        # Worker 0 gets pt00 (crashes after reporting) with pt01/pt02
        # prefetched behind it; both must still succeed on first attempt.
        report = engine.run(link_jobs(3, faults={0: "raise_exit"}))
        by_id = {r.job_id: r for r in report.results}
        assert by_id["pt00"].ok and by_id["pt00"].attempts == 2
        assert by_id["pt01"].ok and by_id["pt01"].attempts == 1
        assert by_id["pt02"].ok and by_id["pt02"].attempts == 1
    finally:
        engine.close()


# -- batched submission ------------------------------------------------------------


def test_prefetch_batches_jobs_ahead_of_completion():
    with ParallelSweepEngine(jobs=1, timeout_s=120, prefetch_depth=2) as engine:
        report, kinds = traced_kinds(engine, link_jobs(4))
    assert all(r.ok for r in report.results)
    # Two dispatches land before the first completion: the worker always
    # has the next job in hand when it finishes one.
    first_finish = kinds.index("sweep:job_finished")
    assert kinds[:first_finish].count("sweep:job_dispatched") == 2


# -- cache control on a warm pool --------------------------------------------------


def test_engine_cache_dir_redirects_borrowed_pool(tmp_path):
    def grid():
        return sweep_jobs_for_grid(
            build_mccdma_graph(),
            default_library(),
            devices=(XC2V1000,),
            architectures=(case_a_standalone(),),
            dynamic_constraints=CONSTRAINTS,
            pins=PINS,
        )

    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    with WorkerPool(1, cache_dir=dir_a, name="caches") as pool:
        ParallelSweepEngine(pool=pool, timeout_s=300, cache_dir=dir_a).run(grid())
        assert list(dir_a.glob("*.pkl"))
        # Same warm worker, new cache dir: the engine resets the pool's
        # caches before dispatch, so artifacts land in the new tier.
        ParallelSweepEngine(pool=pool, timeout_s=300, cache_dir=dir_b).run(grid())
        assert list(dir_b.glob("*.pkl"))
        assert pool.spawned_total == 1
        assert pool.cache_dir == str(dir_b)


# -- tracing across runs -----------------------------------------------------------


def test_worker_span_ids_stay_unique_across_traced_runs():
    """One warm worker serves two traced runs; its ``w0-`` span ids must
    never repeat even though each run brings a fresh trace."""
    engine = ParallelSweepEngine(jobs=1, timeout_s=120, sweep_name="traced")
    try:
        worker_spans = []
        for _ in range(2):
            with use_tracer(Tracer()) as tracer:
                report = engine.run(link_jobs(2))
                assert all(r.ok for r in report.results)
                worker_spans.extend(
                    s for s in tracer.spans if s.context.span_id.startswith("w0-")
                )
        assert worker_spans  # the workers did contribute spans
        ids = [s.context.span_id for s in worker_spans]
        assert len(ids) == len(set(ids)), f"duplicated span ids: {sorted(ids)}"
        # Both runs' worker spans carry the worker process lane.
        assert {s.process for s in worker_spans} == {"worker-0"}
    finally:
        engine.close()


def test_raise_exit_fault_is_cheap_to_validate_in_process():
    """The fault spec itself: attempt 1 raises the reporting-then-exit
    error, attempt 2 passes (in-process, so no actual exit here)."""
    from repro.exec.worker import ExitAfterReport, _apply_fault

    with pytest.raises(ExitAfterReport):
        _apply_fault("raise_exit", attempt=1)
    _apply_fault("raise_exit", attempt=2)  # no raise


def test_link_jobs_helper_is_picklable_with_faults():
    import pickle

    job = link_jobs(1, faults={0: "raise"})[0]
    clone = pickle.loads(pickle.dumps(job))
    assert dataclasses.asdict(clone) == dataclasses.asdict(job)
