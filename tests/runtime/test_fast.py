"""Engine parity: the batched fast path must match the kernel digest-exactly.

The fast engine re-derives manager behaviour as array cores (closed forms
per request step); these tests are the contract that keeps them honest.
The property sweep covers every policy bundle x traffic pattern x seed x
region-slot override and asserts bit-identical per-board counters and end
times — the same discipline the incremental scheduler and the batched link
engine use for their reference paths.  The telemetry oracle holds both
engines to the same windowed rows, the tie-stress sweep drives request
instants onto every latency and transfer boundary, hand-built schedules
pin the speculate core's second-flight paths, and a generated differential
test compares both engines on random small fleets.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.telemetry import TimeSeriesStore
from repro.reconfig.manager import COUNTER_FIELDS, ManagerStats, ReconfigError
from repro.reconfig.prefetch import HistoryPrefetchPolicy
from repro.runtime import (
    ENGINES,
    POLICY_REGISTRY,
    FleetConfig,
    PolicyBundle,
    generate_fleet_schedules,
    policy_names,
    run_fleet,
    run_frontier,
    vector_mode,
)
from repro.runtime.fast import _load_table
from repro.runtime.fleet import FleetTelemetryRecorder, _architecture, _run_kernel_boards

ALL_POLICIES = policy_names()


def _parity(config: FleetConfig) -> tuple:
    kernel = run_fleet(config, engine="kernel")
    fast = run_fleet(config, engine="fast")
    assert fast.digest() == kernel.digest(), (
        f"engine divergence for {config}: "
        f"kernel={kernel.digest()[:12]} fast={fast.digest()[:12]}"
    )
    assert fast.boards == kernel.boards
    assert fast.end_time_ns == kernel.end_time_ns
    return kernel, fast


@pytest.mark.parametrize("policy", ALL_POLICIES)
@pytest.mark.parametrize("traffic", ["poisson", "diurnal", "thrash"])
def test_engines_agree_across_policies_and_traffic(policy, traffic):
    for seed in (0, 11):
        _parity(
            FleetConfig(
                n_boards=3,
                requests_per_board=40,
                policy=policy,
                traffic=traffic,
                seed=seed,
            )
        )


@pytest.mark.parametrize("policy", ["none", "fixed", "history", "lru", "lfu", "belady"])
@pytest.mark.parametrize("slots", [1, 3])
def test_engines_agree_under_region_slot_overrides(policy, slots):
    _parity(
        FleetConfig(
            n_boards=3,
            requests_per_board=50,
            policy=policy,
            region_slots=slots,
            regions=3,
            modules_per_region=5,
            traffic="thrash",
            seed=7,
        )
    )


@pytest.mark.parametrize("mean_gap_ns", [2_000, 200_000, 20_000_000])
def test_engines_agree_across_contention_regimes(mean_gap_ns):
    """Tiny gaps force join/queue paths, huge gaps the idle-hit paths."""
    for policy in ("fixed", "history", "markov"):
        _parity(
            FleetConfig(
                n_boards=3,
                requests_per_board=40,
                policy=policy,
                mean_gap_ns=mean_gap_ns,
                seed=5,
            )
        )


def test_engines_agree_on_alternate_architectures():
    for arch in ("case_b_processor", "case_hybrid_mp", "case_c_jtag"):
        for policy in ("fixed", "history", "lru"):
            _parity(
                FleetConfig(
                    n_boards=2,
                    requests_per_board=30,
                    policy=policy,
                    architecture=arch,
                    mean_gap_ns=50_000,
                    seed=2,
                )
            )


def test_engines_agree_on_lexicographic_name_ties():
    """11 modules per region: 'm10' sorts before 'm2', so eviction
    tie-breaks exercise the name-rank encoding of the vector cores."""
    for policy in ("lru", "lfu", "none", "belady"):
        _parity(
            FleetConfig(
                n_boards=3,
                requests_per_board=60,
                policy=policy,
                modules_per_region=11,
                region_slots=2,
                traffic="thrash",
                mean_gap_ns=3_000,
                seed=9,
            )
        )


def test_engines_agree_on_empty_fleet():
    _parity(FleetConfig(n_boards=2, requests_per_board=0, policy="none"))


def test_fast_engine_is_the_default_and_reports_itself():
    config = FleetConfig(n_boards=2, requests_per_board=10, policy="fixed")
    assert config.engine == "fast"
    report = run_fleet(config)
    assert report.engine == "fast"
    assert report.engine_stats is not None
    assert report.engine_stats.mode == "vector:onselect"
    payload = report.to_dict()
    assert payload["engine"] == "fast"
    assert payload["engine_stats"]["vector_boards"] == 2
    kernel = run_fleet(config, engine="kernel")
    assert kernel.engine_stats is None
    assert kernel.to_dict()["engine"] == "kernel"


def test_unknown_engine_is_rejected():
    config = FleetConfig(n_boards=1, requests_per_board=5)
    with pytest.raises(ValueError, match="unknown engine"):
        run_fleet(config, engine="warp")
    assert set(ENGINES) == {"fast", "kernel"}


def test_vector_mode_dispatch_table():
    assert vector_mode("none") == "noprefetch-single"
    assert vector_mode("none", 3) == "noprefetch-fifo"
    assert vector_mode("fixed") == "onselect"
    assert vector_mode("on_select") == "onselect"
    assert vector_mode("lru") == "noprefetch-lru"
    assert vector_mode("lfu") == "noprefetch-lfu"
    # one slot makes eviction bookkeeping unobservable: plain sequential core
    assert vector_mode("lru", 1) == "noprefetch-single"
    assert vector_mode("belady", 1) == "noprefetch-single"
    # clairvoyance is a next-use metric on the no-prefetch core
    assert vector_mode("belady") == "noprefetch-belady"
    # idle-time speculation has its own one-slot core
    assert vector_mode("history") == "speculate"
    assert vector_mode("confidence") == "speculate"
    assert vector_mode("markov") == "speculate"
    # multi-slot overrides: on-select and speculation get the resident block
    assert vector_mode("fixed", 2) == "onselect-fifo"
    assert vector_mode("history", 2) == "speculate-fifo"
    assert vector_mode("markov", 3) == "speculate-fifo"


def test_vectorized_policies_actually_vectorize():
    """Regression guard: no bundle may silently leave the array engine for
    the kernel (the analogue of the incremental scheduler's eval-count
    guard)."""
    for policy in ALL_POLICIES:
        report = run_fleet(
            FleetConfig(n_boards=4, requests_per_board=25, policy=policy),
            engine="fast",
        )
        stats = report.engine_stats
        assert stats is not None
        assert stats.mode == f"vector:{vector_mode(policy)}"
        assert stats.vector_boards == 4
        assert stats.scalar_boards == 0
        assert stats.vector_steps == 25


def test_fast_engine_throughput_floor():
    """The fast path must clearly outrun the kernel even at test scale.

    The floor is deliberately loose (2x; the benchmark enforces 10x at
    headline scale) so a slow CI host never flakes, but a fast path that
    quietly degenerated to kernel speed fails.
    """
    config = FleetConfig(n_boards=24, requests_per_board=200, policy="fixed")
    schedules = generate_fleet_schedules(config)
    kernel = run_fleet(config, engine="kernel", schedules=schedules)
    fast = run_fleet(config, engine="fast", schedules=schedules)
    assert fast.digest() == kernel.digest()
    assert kernel.wall_s > fast.wall_s * 2, (
        f"fast engine too slow: kernel {kernel.wall_s:.3f}s vs "
        f"fast {fast.wall_s:.3f}s"
    )


def test_traced_boards_ride_the_kernel_inside_the_fast_engine():
    config = FleetConfig(
        n_boards=5, requests_per_board=30, policy="history", seed=11, trace_boards=2
    )
    kernel = run_fleet(config, engine="kernel")
    fast = run_fleet(config, engine="fast")
    assert fast.digest() == kernel.digest()
    assert [t.scope for t in fast.traces] == ["b0000", "b0001"]
    for fast_trace, kernel_trace in zip(fast.traces, kernel.traces):
        assert fast_trace.spans == kernel_trace.spans


def test_run_fleet_accepts_pregenerated_schedules():
    config = FleetConfig(n_boards=3, requests_per_board=20, policy="fixed")
    schedules = generate_fleet_schedules(config)
    assert run_fleet(config, schedules=schedules).digest() == run_fleet(config).digest()
    with pytest.raises(ValueError, match="schedules"):
        run_fleet(config, schedules=schedules[:-1])


def test_run_frontier_engine_override_preserves_digests():
    base = FleetConfig(n_boards=3, requests_per_board=30, seed=3)
    fast = run_frontier(base, ["none", "fixed", "history"])
    kernel = run_frontier(base, ["none", "fixed", "history"], engine="kernel")
    for name in fast:
        assert fast[name].digest() == kernel[name].digest(), name
        assert fast[name].engine == "fast"
        assert kernel[name].engine == "kernel"


# -- the ManagerStats array bridge the fast engine builds its rows through --


def test_manager_stats_counter_round_trip():
    stats = ManagerStats(
        demand_requests=7, demand_loads=3, prefetch_loads=2, useful_prefetches=1,
        wasted_prefetches=1, instant_hits=4, resident_hits=2, evictions=1,
        stall_ns=12345,
    )
    row = stats.as_counters()
    assert len(row) == len(COUNTER_FIELDS)
    assert ManagerStats.field_names() == COUNTER_FIELDS
    rebuilt = ManagerStats.from_counters(row)
    assert rebuilt == stats
    assert rebuilt.to_dict() == stats.to_dict()
    with pytest.raises(ValueError, match="counters"):
        ManagerStats.from_counters(row[:-1])


def test_manager_state_export_import_round_trip():
    """The manager's quiescent snapshot is lossless and guarded."""
    from repro.reconfig import case_a_standalone
    from repro.runtime import Board, board_rng, generate_schedule
    from repro.sim import Simulator

    arch = case_a_standalone()
    region_map = {"R0": ["m0", "m1", "m2"], "R1": ["m0", "m1"]}

    def build(run_requests: bool):
        sim = Simulator()
        store = arch.make_store()
        for region, modules in region_map.items():
            for module in modules:
                store.register(region, module, 88_000)
        board = Board("b0000", sim, arch, store)
        for region, modules in region_map.items():
            board.preload(region, modules[0])
        if run_requests:
            schedule = generate_schedule(
                "poisson", board_rng(4, "b0000"), region_map, 20
            )
            board.start(schedule)
            sim.run()
        return board

    board = build(run_requests=True)
    snapshot = board.manager.export_state()
    assert snapshot["stats"] == board.manager.stats.as_counters()
    fresh = build(run_requests=False)
    fresh.manager.import_state(snapshot)
    assert fresh.manager.export_state() == snapshot
    assert fresh.manager.stats == board.manager.stats
    for region in region_map:
        assert fresh.manager.loaded_module(region) == board.manager.loaded_module(region)


def test_manager_state_export_refuses_inflight_loads():
    from repro.reconfig import case_a_standalone
    from repro.runtime import Board
    from repro.sim import Simulator

    arch = case_a_standalone()
    sim = Simulator()
    store = arch.make_store()
    for module in ("m0", "m1"):
        store.register("R0", module, 88_000)
    board = Board("b0000", sim, arch, store)
    board.preload("R0", "m0")
    board.manager.ensure_loaded("R0", "m1")  # queued, not yet run
    with pytest.raises(ReconfigError, match="active or queued"):
        board.manager.export_state()


def test_property_sweep_full_matrix_smoke():
    """One broad randomized-ish sweep tying it together: every policy on a
    board mix with per-policy slot overrides, both engines, one digest map."""
    for policy in ALL_POLICIES:
        for slots in (None, 2):
            config = FleetConfig(
                n_boards=2,
                requests_per_board=35,
                policy=policy,
                region_slots=slots,
                traffic="diurnal",
                mean_gap_ns=20_000,
                seed=13,
            )
            _parity(config)


# -- one array engine, the kernel as oracle ---------------------------------


def _rows(store: TimeSeriesStore) -> list[dict]:
    return [row for row in store.to_rows() if not row.get("meta")]


def _assert_same_telemetry(kernel_rows: list[dict], fast_rows: list[dict]) -> None:
    """Counters and sketches exactly; ``fleet.port_util`` to 1e-12 relative,
    because the engines sum its float contributions in different orders."""
    assert len(kernel_rows) == len(fast_rows)
    for k_row, f_row in zip(kernel_rows, fast_rows):
        if k_row["name"] == "fleet.port_util":
            k_value, f_value = k_row.pop("value"), f_row.pop("value")
            assert f_value == pytest.approx(k_value, rel=1e-12, abs=0)
        assert k_row == f_row


def _both_engines(config: FleetConfig, schedules=None) -> tuple:
    stores = {engine: TimeSeriesStore(window=1_000_000, clock="sim") for engine in ENGINES}
    reports = {
        engine: run_fleet(config, engine=engine, schedules=schedules, telemetry=store)
        for engine, store in stores.items()
    }
    kernel, fast = reports["kernel"], reports["fast"]
    assert fast.digest() == kernel.digest(), config
    assert fast.boards == kernel.boards
    assert fast.end_time_ns == kernel.end_time_ns
    _assert_same_telemetry(_rows(stores["kernel"]), _rows(stores["fast"]))
    return kernel, fast


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_kernel_and_fast_telemetry_agree(policy):
    """Either engine feeds the recorder the same events: SLO verdicts and
    dashboards cannot depend on the engine."""
    for slots in (1, 2, 3):
        for traffic in ("poisson", "diurnal", "thrash"):
            config = FleetConfig(
                n_boards=4, requests_per_board=30, policy=policy, region_slots=slots,
                traffic=traffic, mean_gap_ns=50_000, seed=slots,
            )
            _, fast = _both_engines(config)
            assert fast.engine_stats.scalar_boards == 0


def _tie_schedules(config: FleetConfig, rng: random.Random) -> list:
    """Gaps on every latency/transfer boundary; only the last board draws
    zero gaps too, so the others stay off the kernel replay."""
    arch = _architecture(config.architecture)
    latency = arch.request_latency_ns
    transfer = next(iter(_load_table(config, arch, config.region_map()).values()))
    menu = [
        1, latency - 1, latency, latency + 1, transfer,
        latency + transfer - 1, latency + transfer, latency + transfer + 1,
    ]
    region_map = config.region_map()
    return [
        [
            (rng.choice(menu + [0] * (board == config.n_boards - 1)), region,
             rng.choice(region_map[region]))
            for region in (rng.choice(list(region_map)) for _ in range(config.requests_per_board))
        ]
        for board in range(config.n_boards)
    ]


def test_tie_stress_parity_on_every_boundary():
    """Request instants on latency ends, transfer ends and zero gaps: the
    fast engine orders them exactly like the kernel, replaying a board on
    the kernel only where no cheap rule exists."""
    rng = random.Random(20)
    replayed = 0
    for policy in ALL_POLICIES:
        for slots in (1, 2, 3):
            for regions in (1, 2, 3):
                config = FleetConfig(
                    n_boards=4, requests_per_board=24, policy=policy,
                    region_slots=slots, regions=regions, modules_per_region=3,
                )
                _, fast = _both_engines(config, _tie_schedules(config, rng))
                replayed += fast.engine_stats.scalar_boards
    assert replayed > 0, "the kernel-replay path never ran"


def test_benchmark_traffic_never_replays_on_the_kernel():
    """perfbench's fleet-scalar traffic (200 x 500, seeds 0-3) stays on the
    array engine, queued speculations included."""
    for seed in range(4):
        base = FleetConfig(n_boards=200, requests_per_board=500, traffic="poisson", seed=seed)
        schedules = generate_fleet_schedules(base)
        for policy in ("history", "confidence", "markov", "belady"):
            stats = run_fleet(replace(base, policy=policy), schedules=schedules).engine_stats
            assert stats.scalar_boards == 0, (seed, policy)
            assert stats.vector_boards == 200


def test_zero_gap_boards_replay_on_the_kernel():
    config = FleetConfig(n_boards=3, requests_per_board=4, policy="history")
    schedules = [[(5_000, "R0", "m1"), (0, "R0", "m2"), (7, "R1", "m1"), (9, "R0", "m1")]]
    schedules += [[(5_000, "R0", "m1"), (1, "R0", "m2"), (7, "R1", "m1"), (9, "R0", "m1")]] * 2
    _, fast = _both_engines(config, schedules)
    assert fast.engine_stats.scalar_boards == 1
    assert fast.engine_stats.vector_boards == 2


# -- second flights: the speculate core's queue and resident area ------------
#
# The default architecture's request latency is 500 ns and every transfer
# takes X ns.  The board-wide predictor is trained on R1 first (20 ms apart, so every flight
# lands): m1 -> m2 is the first-order favourite, and the markov pair
# (m1, m1) -> m3.  Then R0 loads m1 at T and speculates m2 (landing at
# e = T + 500 + X); a demand for m1 100 ns later is an instant hit inside
# that flight's latency, and markov queues m3 behind the flight.

X = 4_299_927
MS20 = 20_000_000
QUEUED = [(MS20, "R1", m) for m in ("m1", "m2", "m1", "m2", "m1", "m1", "m3")]
QUEUED += [(MS20, "R0", "m1"), (100, "R0", "m1")]
#: R0 loads m1 at T and speculates m2 (history's favourite); with two
#: slots m0 stays resident beside m1
AREA = [(MS20, "R1", m) for m in ("m1", "m2", "m1", "m2")] + [(MS20, "R0", "m1")]


def _second_flight(policy: str, slots: int, schedules: list) -> tuple:
    """Both engines agree on ``schedules``; returns the fast report and the
    kernel's last ``(t_req, stall_ns, hit)`` demand of each board."""
    config = FleetConfig(
        n_boards=len(schedules), requests_per_board=len(schedules[0]),
        policy=policy, region_slots=slots,
    )
    _, fast = _both_engines(config, schedules)
    last = []
    for schedule in schedules:
        sink = FleetTelemetryRecorder()
        _run_kernel_boards(
            replace(config, n_boards=1), _architecture(config.architecture), [schedule],
            sink=sink,
        )
        last.append(sink.scalar_demands[-1])
    return fast, last


def test_queued_speculation_takes_the_port_before_a_later_demand():
    """R1's demand at e + 600 finds the queued m3 started at e: its load
    waits for that transfer, stalling 2X - 100 instead of 500 + X."""
    fast, [last] = _second_flight("markov", 1, [QUEUED + [(X + 1000, "R1", "m0")]])
    assert fast.engine_stats.scalar_boards == 0
    assert last[1:] == (2 * X - 100, False)


def test_queued_speculation_is_cancelled_by_a_demand_for_another_module():
    """R0's demand for m0 at T + 1100 cancels the queued m3, so its load
    starts at e and stalls 2X - 100, not 3X - 100 behind m3."""
    fast, [last] = _second_flight("markov", 1, [QUEUED + [(1000, "R0", "m0")]])
    assert fast.engine_stats.scalar_boards == 0
    assert last[1:] == (2 * X - 100, False)


def test_started_queued_speculation_is_wasted_under_a_reload():
    """R0's demand for m0 at e + 600 waits behind the started m3, which
    lands over the unclaimed m2; the reload then overwrites the unclaimed
    m3 — two wasted speculations in one step — and stalls 2X + 400."""
    fast, [last] = _second_flight("markov", 1, [QUEUED + [(X + 1000, "R0", "m0")]])
    assert fast.engine_stats.scalar_boards == 0
    assert last[1:] == (2 * X + 400, False)


def test_demand_behind_a_queued_speculation_for_its_module_replays():
    """R0's demand for m3 while m3 waits behind the flight would need a
    queue two jobs deep: only that board replays on the kernel."""
    fast, _ = _second_flight(
        "markov", 1, [QUEUED + [(200, "R0", "m3")], QUEUED + [(200, "R0", "m2")]]
    )
    assert fast.engine_stats.scalar_boards == 1


def test_demand_behind_a_noop_queued_speculation_follows_the_flight():
    """History's hit on m1 inside the latency queues m2, the flight's own
    module: a no-op when picked, so R0's demand for m2 just waits for
    the landing (X + 200) and stays on the arrays."""
    fast, [last] = _second_flight("history", 1, [AREA + [(100, "R0", "m1"), (200, "R0", "m2")]])
    assert fast.engine_stats.scalar_boards == 0
    assert last[1:] == (X + 200, False)


def test_resident_hit_inside_a_flight_latency():
    """R0's demand for the resident m0 while m2 is in its latency is a
    context switch: a hit with no stall."""
    fast, [last] = _second_flight("history", 2, [AREA + [(100, "R0", "m0")]])
    assert fast.engine_stats.scalar_boards == 0
    assert last[1:] == (0, True)


def test_mid_transfer_demand_for_a_resident_module_waits_for_the_landing():
    """Mid-transfer, a resident module is no hit.  The landing of m2
    FIFO-evicts m0 (board 0 reloads it: 2X) and keeps m1 (board 1
    switches to it at the landing: X - 500, still a hit)."""
    fast, last = _second_flight(
        "history", 2, [AREA + [(1000, "R0", "m0")], AREA + [(1000, "R0", "m1")]]
    )
    assert fast.engine_stats.scalar_boards == 0
    assert [event[1:] for event in last] == [(2 * X, False), (X - 500, True)]


class _QuietHistory(HistoryPrefetchPolicy):
    """A subclass no core may assume it understands."""


def test_unrecognised_bundle_replays_every_board_on_the_kernel(monkeypatch):
    bundle = PolicyBundle(name="quiet", description="test", prefetch_factory=_QuietHistory)
    monkeypatch.setitem(POLICY_REGISTRY, "quiet", bundle)
    assert vector_mode("quiet") == "kernel"
    config = FleetConfig(n_boards=3, requests_per_board=30, policy="quiet", mean_gap_ns=20_000)
    _, fast = _both_engines(config)
    assert fast.engine_stats.scalar_boards == 3
    assert fast.engine_stats.vector_boards == 0


@settings(max_examples=600, deadline=None)
@given(
    policy=st.sampled_from(ALL_POLICIES),
    slots=st.integers(1, 4),
    regions=st.integers(1, 3),
    modules=st.integers(1, 11),
    mean_gap_ns=st.floats(1.7, 7.3).map(lambda exponent: int(10**exponent)),
    traffic=st.sampled_from(["poisson", "diurnal", "thrash"]),
    n_boards=st.integers(2, 4),
    requests=st.integers(1, 40),
    seed=st.integers(0, 2**16),
)
def test_generated_fleets_agree_with_the_kernel(
    policy, slots, regions, modules, mean_gap_ns, traffic, n_boards, requests, seed
):
    _both_engines(
        FleetConfig(
            n_boards=n_boards, requests_per_board=requests, policy=policy,
            region_slots=slots, regions=regions, modules_per_region=modules,
            mean_gap_ns=mean_gap_ns, traffic=traffic, seed=seed,
        )
    )
