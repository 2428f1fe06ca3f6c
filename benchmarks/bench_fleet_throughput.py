"""X7 — fleet throughput: the batched fast engine vs the event kernel.

The fleet multiplexer now ships two engines over identical semantics:

- ``kernel`` — every board live on the shared discrete-event calendar
  (the reference path; traces, cross-board coupling),
- ``fast`` — the manager state advanced with vectorized per-step updates
  over the schedule set's ``(boards, requests)`` arrays, which are born in
  that form: one array core per policy bundle and slot count, and a
  kernel replay for the rare board whose request meets an event tie.

Both engines replay one schedule set generated before the timed runs, and
the fast engine reads its arrays without repacking them, so
``fast.requests_per_sec`` times the vector cores alone; the kernel's wall
includes decoding each board's tuple view.

The benchmark runs the 1,000-board x 1,000-request headline through BOTH
engines with matched warm-up, best-of-3 walls, and asserts

- digest parity: every per-board counter and the fleet end time identical
  between engines (the exactness contract, not a tolerance),
- determinism: two fast runs produce the same digest,
- a speedup floor: fast must beat kernel by >= 10x at full scale
  (>= 3x under ``FLEET_SMOKE=1``, where fixed costs dominate the tiny
  fleet), plus the absolute req/s floors,
- the per-policy frontier invariants (belady bounds its online
  competitors), with both engines' digests compared per policy — all
  eight frontier policies, plus two- and three-slot frontiers on every
  core with a resident area, in smoke mode too.

Writes ``BENCH_fleet_throughput.json`` (full) or
``BENCH_fleet_throughput_smoke.json`` (smoke) with kernel and fast walls
side by side.
"""

import os
import time
from dataclasses import replace

from conftest import write_bench_json

from repro.runtime import FleetConfig, generate_fleet_schedules, run_fleet, run_frontier

SMOKE = os.environ.get("FLEET_SMOKE", "") not in ("", "0")

HEADLINE_BOARDS = 32 if SMOKE else 1000
HEADLINE_REQUESTS = 50 if SMOKE else 1000
HEADLINE_POLICY = "fixed"

FRONTIER_BOARDS = 16 if SMOKE else 200
FRONTIER_REQUESTS = 40 if SMOKE else 100
FRONTIER_POLICIES = ("none", "fixed", "history", "confidence", "markov", "lru", "lfu", "belady")
#: bundles under multi-slot area overrides, compared across engines like
#: the frontier: every core that keeps a resident area (no-prefetch FIFO,
#: LRU, LFU and Belady, on-select and speculate)
SLOTS_FRONTIER_POLICIES = (
    "none", "fixed", "lru", "lfu", "belady", "history", "confidence", "markov",
)
SLOTS_FRONTIER_SLOTS = (2, 3)

#: Absolute wall-clock floors, far below measured rates so shared CI
#: runners only fail on a real regression (kernel ~15-20k req/s, fast
#: ~500k+ req/s on a dev box at full scale).
MIN_KERNEL_REQUESTS_PER_SEC = 1_000 if SMOKE else 5_000
MIN_FAST_REQUESTS_PER_SEC = 3_000 if SMOKE else 50_000

#: Relative floor for the headline: the reason the fast engine exists.
#: The smoke fleet is small enough that per-run fixed costs eat into the
#: ratio, so CI enforces a scaled-down floor over the same assertion.
MIN_SPEEDUP = 3.0 if SMOKE else 10.0

BEST_OF = 3


def _best_of(config: FleetConfig, engine: str, schedules) -> tuple[object, float]:
    """Best-of-N wall for one engine with one matched warm-up run.

    The warm-up run (not timed) pays import/JIT/allocator costs for both
    engines identically; the reported wall is the minimum over ``BEST_OF``
    timed runs on the SAME pre-generated schedules, so schedule generation
    is excluded from the comparison for both sides.
    """
    warm = run_fleet(config, engine=engine, schedules=schedules)
    best = None
    best_wall = float("inf")
    for _ in range(BEST_OF):
        t0 = time.perf_counter()
        report = run_fleet(config, engine=engine, schedules=schedules)
        wall = time.perf_counter() - t0
        assert report.digest() == warm.digest(), "nondeterministic engine run"
        if wall < best_wall:
            best, best_wall = report, wall
    best.wall_s = best_wall
    return best, best_wall


def test_fleet_throughput():
    headline = FleetConfig(
        n_boards=HEADLINE_BOARDS,
        requests_per_board=HEADLINE_REQUESTS,
        policy=HEADLINE_POLICY,
    )
    schedules = generate_fleet_schedules(headline)
    kernel, kernel_wall = _best_of(headline, "kernel", schedules)
    fast, fast_wall = _best_of(headline, "fast", schedules)

    # Exactness is the acceptance bar: per-board counters and end time
    # must be identical between the two engines, not merely close.
    assert fast.digest() == kernel.digest(), (fast.digest(), kernel.digest())
    assert fast.boards == kernel.boards
    assert fast.end_time_ns == kernel.end_time_ns

    total = headline.n_boards * headline.requests_per_board
    if not SMOKE:
        assert total >= 1_000_000
        assert headline.n_boards >= 1_000
    kernel_rps = total / kernel_wall
    fast_rps = total / fast_wall
    speedup = kernel_wall / fast_wall
    assert kernel_rps >= MIN_KERNEL_REQUESTS_PER_SEC, kernel.summary()
    assert fast_rps >= MIN_FAST_REQUESTS_PER_SEC, fast.summary()
    assert speedup >= MIN_SPEEDUP, (
        f"fast engine speedup {speedup:.1f}x below the {MIN_SPEEDUP:.0f}x floor "
        f"(kernel {kernel_wall:.2f}s, fast {fast_wall:.2f}s)"
    )
    # Every board finished its whole schedule, on both engines.
    assert kernel.totals["demand_requests"] == total
    assert fast.totals["demand_requests"] == total

    frontier_base = FleetConfig(
        n_boards=FRONTIER_BOARDS, requests_per_board=FRONTIER_REQUESTS
    )
    frontier = run_frontier(frontier_base, list(FRONTIER_POLICIES))
    frontier_kernel = run_frontier(
        frontier_base, list(FRONTIER_POLICIES), engine="kernel"
    )
    for policy in FRONTIER_POLICIES:
        assert frontier[policy].digest() == frontier_kernel[policy].digest(), policy
    slots_frontier, slots_kernel = {}, {}
    for slots in SLOTS_FRONTIER_SLOTS:
        slots_base = replace(frontier_base, region_slots=slots)
        slots_frontier[slots] = run_frontier(slots_base, list(SLOTS_FRONTIER_POLICIES))
        slots_kernel[slots] = run_frontier(
            slots_base, list(SLOTS_FRONTIER_POLICIES), engine="kernel"
        )
        for policy in SLOTS_FRONTIER_POLICIES:
            assert (
                slots_frontier[slots][policy].digest() == slots_kernel[slots][policy].digest()
            ), (policy, slots)
    if not SMOKE:
        # Clairvoyant eviction bounds its online competitors from above.
        assert frontier["belady"].hit_rate >= frontier["lru"].hit_rate
        assert frontier["belady"].hit_rate >= frontier["lfu"].hit_rate
        # Any form of management beats the reactive single-slot baseline.
        assert frontier["belady"].mean_stall_ns < frontier["none"].mean_stall_ns
        assert frontier["fixed"].mean_stall_ns < frontier["none"].mean_stall_ns

    name = "BENCH_fleet_throughput_smoke" if SMOKE else "BENCH_fleet_throughput"
    payload = {
        "smoke": SMOKE,
        "best_of": BEST_OF,
        "min_kernel_requests_per_sec": MIN_KERNEL_REQUESTS_PER_SEC,
        "min_fast_requests_per_sec": MIN_FAST_REQUESTS_PER_SEC,
        "min_speedup": MIN_SPEEDUP,
        "headline": {
            "n_boards": headline.n_boards,
            "requests_per_board": headline.requests_per_board,
            "policy": headline.policy,
            "total_requests": total,
            "digest": fast.digest(),
            "digest_parity": fast.digest() == kernel.digest(),
            "kernel": {
                "wall_s": kernel_wall,
                "requests_per_sec": kernel_rps,
            },
            "fast": {
                "wall_s": fast_wall,
                "requests_per_sec": fast_rps,
                "engine_stats": fast.engine_stats.to_dict(),
            },
            "speedup": speedup,
        },
        "frontier": {
            policy: {
                **report.to_dict(),
                "kernel_digest": frontier_kernel[policy].digest(),
                "fast_engine_stats": (
                    report.engine_stats.to_dict() if report.engine_stats else None
                ),
            }
            for policy, report in frontier.items()
        },
        "slots_frontier": {
            str(slots): {
                policy: {
                    **report.to_dict(),
                    "kernel_digest": slots_kernel[slots][policy].digest(),
                }
                for policy, report in reports.items()
            }
            for slots, reports in slots_frontier.items()
        },
    }
    write_bench_json(name, payload)

    lines = [
        f"headline: {headline.n_boards} boards x {headline.requests_per_board} req "
        f"({HEADLINE_POLICY})",
        f"  kernel  {kernel_wall:>7.2f}s  {kernel_rps:>10,.0f} req/s",
        f"  fast    {fast_wall:>7.2f}s  {fast_rps:>10,.0f} req/s"
        f"  [{fast.engine_stats.mode}]",
        f"  speedup {speedup:.1f}x  digest parity: ok ({fast.digest()[:16]})",
        "",
        f"{'policy':<12} {'hit rate':>9} {'mean stall':>12} {'req/s':>10} {'mode':>18}",
    ]
    rows = [(policy, report) for policy, report in frontier.items()]
    rows += [
        (f"{policy}/{slots}", report)
        for slots, reports in slots_frontier.items()
        for policy, report in reports.items()
    ]
    for policy, report in rows:
        mode = report.engine_stats.mode if report.engine_stats else "kernel"
        lines.append(
            f"{policy:<12} {report.hit_rate:>8.1%} {report.mean_stall_ns / 1e3:>10.1f}us"
            f" {report.requests_per_sec:>10,.0f} {mode:>18}"
        )
    print("\n" + "\n".join(lines))
