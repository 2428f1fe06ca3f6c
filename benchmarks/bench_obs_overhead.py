"""X7 — the observability layer's zero-cost-when-disabled guard.

Every hot path (pipeline stages, the link engine's batch loop, the sweep
engine) now carries tracing call sites.  The contract that makes this
acceptable is that the **default** ambient tracer is the shared no-op:
``span()`` returns one inert handle, no ids are generated, no clocks are
read, and attribute bags are never built (the sites guard them behind
``tracer.enabled``).

This benchmark pins that contract down three ways:

- a no-op ``span()`` round trip costs nanoseconds (microbenchmark);
- a real workload — the batched link simulation — runs with the no-op
  tracer and with a recording tracer plus a telemetry hub; the *enabled*
  overhead is reported and the disabled run must record zero spans and
  zero metrics;
- the disabled/enabled ratio is bounded: if the no-op path ever grows a
  hidden allocation, the ratio guard fails the build.

Wall-clock regression of the previously-tuned hot loops with tracing
disabled is guarded by re-running ``bench_scheduler_scaling`` and
``bench_linklevel_throughput`` (their acceptance floors are unchanged);
this module records the instrumentation-site costs themselves.

Writes ``BENCH_obs_overhead.json`` next to the other artefacts.
"""

import json
import os
import time

from conftest import write_bench_json

from repro.mccdma.engine import LinkEngineConfig, LinkSimulationEngine
from repro.mccdma.transmitter import MCCDMAConfig
from repro.obs import (
    NOOP_TRACER,
    Tracer,
    get_telemetry,
    get_tracer,
    use_telemetry,
    use_tracer,
)

SMOKE = any(
    os.environ.get(var, "") not in ("", "0")
    for var in ("OBS_OVERHEAD_SMOKE", "OBS_TELEMETRY_SMOKE")
)

FRAMES = 48 if SMOKE else 192
REPEATS = 3 if SMOKE else 5
SPAN_CALLS = 200_000

#: A no-op span round trip must stay well under a microsecond.
MAX_NOOP_SPAN_NS = 2_000
#: Enabled tracing may cost something, but the link loop is batch-dominated;
#: a blow-up here means a call site landed inside the per-frame kernels.
MAX_ENABLED_OVERHEAD_PCT = 30.0

#: Fast-engine fleet scale for the telemetry guard: big enough that one run
#: is tens of milliseconds (a stable best-of target), small enough for CI.
FLEET_BOARDS = 32 if SMOKE else 100
FLEET_REQUESTS = 200 if SMOKE else 1000
FLEET_PAIRS = 3 if SMOKE else 12
#: The telemetry recorder only appends references to per-step arrays and
#: defers all aggregation to one vectorized flush per policy run, so the
#: telemetry-on fast engine must stay within a few percent of telemetry-off.
MAX_TELEMETRY_OVERHEAD_PCT = 5.0


def _time_noop_span_ns() -> float:
    tracer = NOOP_TRACER
    t0 = time.perf_counter_ns()
    for _ in range(SPAN_CALLS):
        with tracer.span("x"):
            pass
    return (time.perf_counter_ns() - t0) / SPAN_CALLS


def _time_link_point(repeats: int) -> float:
    engine = LinkSimulationEngine(
        config=MCCDMAConfig(user_codes=(0, 3, 5, 9)),
        engine=LinkEngineConfig(batched=True, batch_frames=64),
    )
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        engine.simulate_point("adaptive", 6.0, FRAMES, seed=11)
        best = min(best, time.perf_counter() - t0)
    return best


def test_observability_overhead_guard():
    assert not get_tracer().enabled, "benchmarks must start with tracing disabled"

    noop_span_ns = _time_noop_span_ns()

    # Workload with the default no-op tracer: no spans may be recorded.
    disabled_s = _time_link_point(REPEATS)
    assert not get_tracer().enabled
    assert get_telemetry() is None  # and no hub: nothing records metrics

    tracer = Tracer()
    with use_tracer(tracer), use_telemetry() as hub:
        enabled_s = _time_link_point(REPEATS)
    assert tracer.spans, "enabled run must record spans"
    assert hub.store("run").total("link.frames_total") > 0

    overhead_pct = 100.0 * (enabled_s - disabled_s) / disabled_s
    payload = {
        "smoke": SMOKE,
        "frames_per_point": FRAMES,
        "noop_span_ns": round(noop_span_ns, 1),
        "max_noop_span_ns": MAX_NOOP_SPAN_NS,
        "link_point_disabled_s": round(disabled_s, 6),
        "link_point_enabled_s": round(enabled_s, 6),
        "enabled_overhead_pct": round(overhead_pct, 2),
        "max_enabled_overhead_pct": MAX_ENABLED_OVERHEAD_PCT,
        "enabled_spans_recorded": len(tracer.spans),
    }
    name = "BENCH_obs_overhead_smoke" if SMOKE else "BENCH_obs_overhead"
    write_bench_json(name, payload)
    print(f"\n[obs_overhead] {json.dumps(payload, indent=2, sort_keys=True)}")

    assert noop_span_ns < MAX_NOOP_SPAN_NS
    if not SMOKE:  # timing ratios on shared runners are noise in smoke mode
        assert overhead_pct < MAX_ENABLED_OVERHEAD_PCT


def test_fleet_telemetry_overhead_guard():
    """Telemetry-on fast-engine fleet: identical digest, bounded overhead.

    Runs the batched array-state engine with and without a sim-clock
    telemetry store in back-to-back pairs and pins down the two halves of
    the tentpole contract: the :meth:`FleetReport.digest` must not move at
    all, and the measured overhead of windowed counter/sketch recording
    must stay small.  The estimator is built for a noisy shared machine
    where preemptions only ever *add* time: off/on runs are interleaved in
    pairs, and the reported overhead is the smaller of two upward-noisy
    estimators — best-of difference (min walls per side) and the median of
    per-pair deltas (pairing cancels slow drift).  Each inflates under a
    different noise pattern, neither deflates below the true floor, so
    their minimum is the stable choice.  The cyclic GC is paused during
    timed runs and collected between pairs so store teardown never lands
    inside a measurement.  Because noise can only inflate the estimate, a
    measurement that lands over the bound is retried once and the best
    attempt is what the guard asserts on.
    """
    from repro.obs.telemetry import TimeSeriesStore
    from repro.runtime import FleetConfig, generate_fleet_schedules, run_fleet

    config = FleetConfig(
        n_boards=FLEET_BOARDS,
        requests_per_board=FLEET_REQUESTS,
        policy="lru",
        engine="fast",
    )
    schedules = generate_fleet_schedules(config)
    run_fleet(config, schedules=schedules)  # warm imports and allocators

    def run_once(with_telemetry: bool):
        # the window is sized so the whole run fits inside the retention
        # ring — an evicted window would silently shrink the demand total
        # the parity assertion below checks
        store = (
            TimeSeriesStore(window=20_000_000, clock="sim")
            if with_telemetry
            else None
        )
        t0 = time.perf_counter()
        report = run_fleet(config, schedules=schedules, telemetry=store)
        return time.perf_counter() - t0, report, store

    import gc
    import statistics

    def measure():
        off_walls, on_walls = [], []
        off_report = on_report = store = None
        gc_was_enabled = gc.isenabled()
        try:
            for _ in range(FLEET_PAIRS):  # paired: same thermal/cache state
                store = None  # free the previous store outside the timed runs
                gc.collect()
                gc.disable()
                off, off_report, _ = run_once(False)
                on, on_report, store = run_once(True)
                gc.enable()
                off_walls.append(off)
                on_walls.append(on)
        finally:
            if gc_was_enabled:
                gc.enable()

        assert on_report.digest() == off_report.digest(), (
            "telemetry recording moved the simulation digest"
        )
        total = config.n_boards * config.requests_per_board
        assert store.total("fleet.demands", policy="lru") == total
        off_wall = min(off_walls)
        on_wall = min(on_walls)
        best_of = 100.0 * (on_wall - off_wall) / off_wall
        paired_median = 100.0 * statistics.median(
            on - off for on, off in zip(on_walls, off_walls)
        ) / statistics.median(off_walls)
        return {
            "off_wall": off_wall,
            "on_wall": on_wall,
            "best_of_pct": best_of,
            "paired_median_pct": paired_median,
            "overhead_pct": min(best_of, paired_median),
            "digest": on_report.digest(),
            "windows": len(store.window_indices()),
        }

    attempts = 1
    result = measure()
    if result["overhead_pct"] >= MAX_TELEMETRY_OVERHEAD_PCT:
        attempts = 2
        retry = measure()
        if retry["overhead_pct"] < result["overhead_pct"]:
            result = retry
    telemetry_overhead_pct = result["overhead_pct"]

    payload = {
        "smoke": SMOKE,
        "boards": FLEET_BOARDS,
        "requests_per_board": FLEET_REQUESTS,
        "pairs": FLEET_PAIRS,
        "attempts": attempts,
        "fleet_wall_off_s": round(result["off_wall"], 6),
        "fleet_wall_on_s": round(result["on_wall"], 6),
        "best_of_pct": round(result["best_of_pct"], 2),
        "paired_median_pct": round(result["paired_median_pct"], 2),
        "telemetry_overhead_pct": round(telemetry_overhead_pct, 2),
        "max_telemetry_overhead_pct": MAX_TELEMETRY_OVERHEAD_PCT,
        "digest": result["digest"],
        "telemetry_windows": result["windows"],
    }
    name = (
        "BENCH_obs_telemetry_overhead_smoke" if SMOKE
        else "BENCH_obs_telemetry_overhead"
    )
    write_bench_json(name, payload)
    print(f"\n[obs_telemetry_overhead] {json.dumps(payload, indent=2, sort_keys=True)}")

    if not SMOKE:  # timing ratios on shared runners are noise in smoke mode
        assert telemetry_overhead_pct < MAX_TELEMETRY_OVERHEAD_PCT, payload
