"""X2 — parallel sweep engine: serial vs warm-pool multi-process sweeps.

The original methodology compared a *single cold* parallel run (process
spawn + full package import on every worker, every run) against a serial
baseline whose in-process cache was already warm — which is how the
engine's old per-run spawning looked 20x slower than serial.  This
benchmark measures matched cache states and separates the two costs the
warm pool splits apart:

- **cold pool** — first run on a fresh :class:`~repro.exec.pool.WorkerPool`
  (spawn + import included), reported honestly as the one-time price;
- **warm pool** — the steady state: the same pool serving later runs, with
  :meth:`~repro.exec.pool.WorkerPool.reset_caches` pointing its workers at
  a fresh artifact dir each round so every round does cold-cache work.

Every wall is the best of three rounds, serial rounds get a fresh cache
dir too, and two workloads bound the engine from both sides:

- the paper's 3x2 design grid (6 heavy jobs — overhead-sensitive);
- a 1000-point link-level grid (cheap compute-bound jobs — dispatch
  throughput and batching show up here).

Acceptance floors scale with the machine: on >= 4 cores the 1000-job grid
must hit >= 2.0x with 4 workers and the warm 6-job grid >= 0.8x of serial;
on smaller hosts (including 1-core CI fallbacks) the floor relaxes to
``0.7 * min(workers, cores)`` and the 6-job ratio is recorded, not
asserted.  Set ``SWEEP_SMOKE=1`` (CI) for reduced frame counts; results
land in ``results/BENCH_sweep_parallel.json`` and ``sweep_parallel.txt``
(or the uncommitted ``..._smoke`` pair).
"""

import os
import time

from conftest import CASE_STUDY_CONSTRAINTS, write_bench_json, write_result

from repro.dfg.library import default_library
from repro.exec import ParallelSweepEngine, WorkerPool
from repro.fabric.device import XC2V1000, XC2V2000, XC2V3000
from repro.flows import parse_constraints, sweep_jobs_for_grid
from repro.mccdma.casestudy import build_mccdma_graph
from repro.mccdma.engine import LinkEngineConfig, LinkPointJob
from repro.mccdma.transmitter import MCCDMAConfig
from repro.reconfig import case_a_standalone, case_b_processor

SMOKE = os.environ.get("SWEEP_SMOKE", "") not in ("", "0")

PINS = (("bit_src", "DSP"), ("select", "DSP"))
CPUS = os.cpu_count() or 1
WORKERS = 4
#: The floor is asserted on as many workers as the host has cores to run
#: them — oversubscribing a 1-core host with 4 workers measures the
#: scheduler's context-switch bill, not the engine.
EFFECTIVE_WORKERS = min(WORKERS, CPUS)
ROUNDS = 3
GRID_POINTS = 1000
FRAMES_PER_POINT = 4 if SMOKE else 8
#: Cheap jobs benefit from deeper worker-side queues (fewer wakeups).
GRID_PREFETCH = 8

#: Speedup floor for the 1000-job grid on EFFECTIVE_WORKERS workers: the
#: CI runners (>= 4 vCPU) must clear 2x; smaller hosts scale with cores.
MIN_GRID_SPEEDUP = 2.0 if CPUS >= 4 else 0.7 * EFFECTIVE_WORKERS
#: Warm-pool floor on the 6-job design grid, asserted on >= 4 cores only.
MIN_DESIGN_RATIO = 0.8


def design_jobs():
    return sweep_jobs_for_grid(
        build_mccdma_graph(),
        default_library(),
        devices=(XC2V1000, XC2V2000, XC2V3000),
        architectures=(case_a_standalone(), case_b_processor()),
        dynamic_constraints=parse_constraints(CASE_STUDY_CONSTRAINTS),
        pins=PINS,
    )


def link_grid_jobs(n_points):
    config = MCCDMAConfig(user_codes=(0,))
    engine = LinkEngineConfig(batch_frames=16)
    return [
        LinkPointJob(
            job_id=f"p{i:04d}",
            strategy="qpsk",
            snr_db=float(i % 16),
            n_frames=FRAMES_PER_POINT,
            seed_entropy=0,
            point_index=i,
            config=config,
            engine=engine,
        )
        for i in range(n_points)
    ]


def best_of(rounds, run_once):
    """Best wall of ``rounds`` matched-state runs (fresh cache each)."""
    best = float("inf")
    report = None
    for index in range(rounds):
        t0 = time.perf_counter()
        report = run_once(index)
        best = min(best, time.perf_counter() - t0)
        assert all(r.ok for r in report.results)
    return best, report


def test_parallel_sweep_vs_serial(tmp_path):
    rows = []

    # -- workload 1: the paper's 6-job design grid --------------------------------
    serial_design, _ = best_of(
        ROUNDS,
        lambda i: ParallelSweepEngine(
            jobs=0, cache_dir=tmp_path / f"sd{i}"
        ).run(design_jobs()),
    )

    pool = WorkerPool(WORKERS, cache_dir=tmp_path / "cold", name="bench")
    try:
        engine = ParallelSweepEngine(
            pool=pool, timeout_s=600, retries=1, cache_dir=tmp_path / "cold"
        )
        t0 = time.perf_counter()
        cold_report = engine.run(design_jobs())
        cold_design = time.perf_counter() - t0
        assert all(r.ok for r in cold_report.results)

        def warm_round(i):
            warm_engine = ParallelSweepEngine(
                pool=pool, timeout_s=600, retries=1, cache_dir=tmp_path / f"wd{i}"
            )
            return warm_engine.run(design_jobs())

        warm_design, warm_report = best_of(ROUNDS, warm_round)
        assert pool.spawned_total == WORKERS  # nothing respawned across rounds

        rows.append(
            {
                "workload": "design_grid_6_jobs",
                "serial_wall_s": round(serial_design, 3),
                "cold_pool_wall_s": round(cold_design, 3),
                "warm_pool_wall_s": round(warm_design, 3),
                "warm_ratio_vs_serial": round(serial_design / warm_design, 2),
                "cache_hits": warm_report.cache_hits(),
                "cache_lookups": warm_report.cache_lookups(),
            }
        )

    finally:
        pool.close()

    # -- workload 2: 1000 cheap compute-bound jobs --------------------------------
    serial_grid, _ = best_of(
        ROUNDS, lambda i: ParallelSweepEngine(jobs=0).run(link_grid_jobs(GRID_POINTS))
    )
    with WorkerPool(EFFECTIVE_WORKERS, name="bench-grid") as grid_pool:
        grid_engine = ParallelSweepEngine(
            pool=grid_pool, timeout_s=600, retries=1, prefetch_depth=GRID_PREFETCH
        )
        grid_engine.run(link_grid_jobs(GRID_POINTS))  # warm the pool first
        warm_grid, _ = best_of(
            ROUNDS, lambda i: grid_engine.run(link_grid_jobs(GRID_POINTS))
        )
    grid_speedup = serial_grid / warm_grid
    rows.append(
        {
            "workload": f"link_grid_{GRID_POINTS}_jobs",
            "workers": EFFECTIVE_WORKERS,
            "serial_wall_s": round(serial_grid, 3),
            "warm_pool_wall_s": round(warm_grid, 3),
            "speedup": round(grid_speedup, 2),
            "frames_per_point": FRAMES_PER_POINT,
        }
    )

    assert grid_speedup >= MIN_GRID_SPEEDUP, (
        f"{GRID_POINTS}-job grid: {grid_speedup:.2f}x on {EFFECTIVE_WORKERS} "
        f"worker(s) ({CPUS} cores) is below the {MIN_GRID_SPEEDUP:.2f}x floor"
    )
    design_ratio = serial_design / warm_design
    if CPUS >= 4:  # overhead-bound on fewer cores; recorded, not asserted
        assert design_ratio >= MIN_DESIGN_RATIO, (
            f"6-job design grid: warm pool at {design_ratio:.2f}x of serial "
            f"is below the {MIN_DESIGN_RATIO:.2f}x floor"
        )

    payload = {
        "smoke": SMOKE,
        "cpus": CPUS,
        "design_grid_workers": WORKERS,
        "link_grid_workers": EFFECTIVE_WORKERS,
        "rounds_per_point": ROUNDS,
        "methodology": "matched cold caches, best-of-rounds walls, "
        "cold pool (spawn+import) and warm pool reported separately",
        "min_grid_speedup": round(MIN_GRID_SPEEDUP, 2),
        "min_design_ratio": MIN_DESIGN_RATIO if CPUS >= 4 else None,
        "runs": rows,
    }
    name = "BENCH_sweep_parallel_smoke" if SMOKE else "BENCH_sweep_parallel"
    write_bench_json(name, payload)

    lines = ["workload                  serial_s  cold_s  warm_s  speedup"]
    for row in rows:
        lines.append(
            f"{row['workload']:<25} {row['serial_wall_s']:8.2f}  "
            f"{row.get('cold_pool_wall_s', float('nan')):6.2f}  "
            f"{row['warm_pool_wall_s']:6.2f}  "
            f"{row.get('speedup', row.get('warm_ratio_vs_serial')):7.2f}"
        )
    write_result("sweep_parallel_smoke" if SMOKE else "sweep_parallel", "\n".join(lines))
