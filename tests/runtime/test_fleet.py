"""Fleet driver: determinism, registration-order invariance, frontier."""

import dataclasses
import random

import pytest

from repro.reconfig import case_a_standalone
from repro.runtime import (
    Board,
    FleetConfig,
    FleetJob,
    board_rng,
    generate_fleet_schedules,
    generate_schedule,
    run_fleet,
    run_frontier,
)
from repro.sim import Simulator, Trace

SMALL = FleetConfig(n_boards=6, requests_per_board=30, policy="history", seed=11)


def test_digest_is_stable_across_runs():
    first = run_fleet(SMALL)
    second = run_fleet(SMALL)
    assert first.digest() == second.digest()
    assert first.boards == second.boards
    assert first.end_time_ns == second.end_time_ns


def test_digest_ignores_wall_clock():
    report = run_fleet(SMALL)
    before = report.digest()
    report.wall_s *= 100  # a slow machine must not change the fingerprint
    assert report.digest() == before


def test_digest_changes_with_seed_and_policy():
    base = run_fleet(SMALL).digest()
    assert run_fleet(dataclasses.replace(SMALL, seed=12)).digest() != base
    assert run_fleet(dataclasses.replace(SMALL, policy="lru")).digest() != base


def _run_ordered(order, seed=4, n_requests=25):
    """Build one board per id on a shared kernel, registering in ``order``,
    and return {board_id: (stats, records, spans)} after a single run."""
    arch = case_a_standalone()
    region_map = {"R0": ["m0", "m1", "m2"], "R1": ["m0", "m1"]}
    sim = Simulator()
    boards = {}
    for board_id in order:
        schedule = generate_schedule(
            "poisson", board_rng(seed, board_id), region_map, n_requests
        )
        store = arch.make_store()
        for region, modules in region_map.items():
            for module in modules:
                store.register(region, module, 88_000)
        trace = Trace(scope=board_id)
        board = Board(board_id, sim, arch, store, trace=trace)
        for region, modules in region_map.items():
            board.preload(region, modules[0])
        board.start(schedule)
        boards[board_id] = board
    sim.run()
    out = {}
    for board_id, board in boards.items():
        board.trace.close_open(sim.now)
        out[board_id] = (
            board.stats.to_dict(),
            board.trace.spans,
        )
    return out


def test_board_registration_order_does_not_change_per_board_traces():
    """The ISSUE.md determinism property: shuffling the order boards are
    registered on the shared kernel leaves every board's stats and trace
    spans identical."""
    ids = [f"b{i:04d}" for i in range(8)]
    canonical = _run_ordered(ids)
    shuffled = list(ids)
    random.Random(99).shuffle(shuffled)
    assert shuffled != ids
    reordered = _run_ordered(shuffled)
    for board_id in ids:
        assert reordered[board_id] == canonical[board_id], board_id


def test_traced_boards_get_scoped_traces():
    report = run_fleet(dataclasses.replace(SMALL, trace_boards=2))
    assert [t.scope for t in report.traces] == ["b0000", "b0001"]
    for trace in report.traces:
        assert trace.spans, "traced boards must actually record"
        assert {s.process for s in trace.spans} == {trace.scope}


def test_totals_and_rates_aggregate_per_board_stats():
    report = run_fleet(SMALL)
    assert report.total_requests == SMALL.n_boards * SMALL.requests_per_board
    assert report.totals["demand_requests"] == report.total_requests
    assert len(report.boards) == SMALL.n_boards
    assert 0.0 <= report.hit_rate <= 1.0
    assert report.mean_stall_ns >= 0.0
    payload = report.to_dict()
    assert payload["digest"] == report.digest()
    assert payload["totals"] == report.totals


def test_frontier_replays_identical_traffic():
    base = FleetConfig(n_boards=4, requests_per_board=30, seed=3)
    frontier = run_frontier(base, ["none", "history"])
    assert set(frontier) == {"none", "history"}
    # Same schedules on both sides: demand totals match exactly.
    assert (
        frontier["none"].totals["demand_requests"]
        == frontier["history"].totals["demand_requests"]
    )


def test_unknown_policy_fails_before_building_the_fleet():
    with pytest.raises(ValueError, match="unknown policy"):
        run_fleet(dataclasses.replace(SMALL, policy="oracle"))


def test_fleet_job_rides_the_sweep_engine_protocol():
    job = FleetJob(config=dataclasses.replace(SMALL, n_boards=3))
    config = job.config
    assert job.job_id == (
        f"fleet-history-poisson-3x30-seed11-{config.fingerprint()[:12]}"
    )
    result = job.execute()
    assert result["n_boards"] == 3
    assert result["digest"] == run_fleet(job.config).digest()


def test_fleet_job_ids_cover_every_config_field():
    """Configs differing only in fields the old id omitted (regions, slots,
    architecture, mean gap, engine) must not collide in the sweep cache."""
    base = dataclasses.replace(SMALL, n_boards=3)
    variants = [
        dataclasses.replace(base, regions=3),
        dataclasses.replace(base, region_slots=2),
        dataclasses.replace(base, architecture="case_b_processor"),
        dataclasses.replace(base, mean_gap_ns=100_000),
        dataclasses.replace(base, modules_per_region=5),
        dataclasses.replace(base, bitstream_bytes=44_000),
        dataclasses.replace(base, trace_boards=1),
        dataclasses.replace(base, engine="kernel"),
    ]
    ids = {FleetJob(config=c).job_id for c in [base, *variants]}
    assert len(ids) == len(variants) + 1


def test_telemetry_never_perturbs_the_digest():
    """Hard invariant from the telemetry wiring: the recorder only reads
    simulation arrays, so a telemetry-enabled run is byte-identical to a
    bare one — for every fast-engine policy core, and with totals that
    reconcile against the report.  Tracing boards (which replays them on
    the kernel for their lanes) changes neither the digest nor a series."""
    from repro.obs.telemetry import TimeSeriesStore

    for policy in ("none", "fixed", "history", "lru", "on_select"):
        rows = {}
        for trace_boards in (0, 2):
            config = dataclasses.replace(
                SMALL, policy=policy, engine="fast", trace_boards=trace_boards
            )
            bare = run_fleet(config)
            store = TimeSeriesStore(window=5_000_000, clock="sim")
            with_tel = run_fleet(config, telemetry=store)
            assert with_tel.digest() == bare.digest(), policy
            assert len(with_tel.traces) == trace_boards
            assert store.total("fleet.demands", policy=policy) == (
                config.n_boards * config.requests_per_board
            )
            hits = sum(b["instant_hits"] + b["resident_hits"] for b in bare.boards)
            assert store.total("fleet.hits", policy=policy) == hits
            rows[trace_boards] = store.to_rows()
        assert rows[2] == rows[0], policy


# -- inputs the two engines would disagree on are refused up front ----------


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_boards", -1),
        ("requests_per_board", -5),
        ("trace_boards", -1),
        ("mean_gap_ns", -10),
        ("regions", 0),
        ("modules_per_region", 0),
        ("region_slots", 0),
    ],
)
def test_fleet_config_rejects_out_of_range_fields(field, value):
    with pytest.raises(ValueError, match=field):
        FleetConfig(**{field: value})


TINY = FleetConfig(n_boards=2, requests_per_board=10, policy="none")


def _tuple_schedules(config=TINY):
    return list(generate_fleet_schedules(config))


@pytest.mark.parametrize("engine", ["fast", "kernel"])
@pytest.mark.parametrize(
    "lengths, board", [((5, 5), 0), ((5, 10), 0), ((10, 5), 1)]
)
def test_run_fleet_rejects_schedules_of_the_wrong_length(engine, lengths, board):
    schedules = [s[:n] for s, n in zip(_tuple_schedules(), lengths)]
    with pytest.raises(ValueError, match=f"board {board}: 5 requests, expected 10"):
        run_fleet(TINY, engine=engine, schedules=schedules)


@pytest.mark.parametrize("engine", ["fast", "kernel"])
@pytest.mark.parametrize(
    "entry, message",
    [
        ((100, "R9", "m0"), "'R9'"),
        ((100, "R0", "m7"), "'m7'"),
        ((-3, "R0", "m0"), "gap -3"),
        ((2.5, "R0", "m0"), "gap 2.5"),
    ],
)
def test_run_fleet_rejects_entries_outside_the_config(engine, entry, message):
    schedules = _tuple_schedules()
    schedules[1][4] = entry
    with pytest.raises(ValueError, match=f"board 1: .*{message}"):
        run_fleet(TINY, engine=engine, schedules=schedules)


def test_run_fleet_checks_a_passed_array_set_against_the_config():
    fewer = generate_fleet_schedules(dataclasses.replace(TINY, requests_per_board=5))
    with pytest.raises(ValueError, match="5 requests per board"):
        run_fleet(TINY, schedules=fewer)
    other_map = generate_fleet_schedules(dataclasses.replace(TINY, regions=3))
    with pytest.raises(ValueError, match="region map"):
        run_fleet(TINY, schedules=other_map)


def test_valid_tuple_schedules_run_like_the_generated_set():
    schedules = _tuple_schedules()
    for engine in ("fast", "kernel"):
        assert (
            run_fleet(TINY, engine=engine, schedules=schedules).digest()
            == run_fleet(TINY, engine=engine).digest()
        )
