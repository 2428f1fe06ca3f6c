"""Traffic generators: reproducibility, pattern properties, lockstep oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import board_rng, future_from_schedule, generate_schedule
from repro.runtime import traffic
from repro.runtime.traffic import TRAFFIC_PATTERNS, ScheduleSet, generate_schedules

REGIONS = {"R0": ["m0", "m1", "m2"], "R1": ["m0", "m1"]}


@pytest.mark.parametrize("pattern", TRAFFIC_PATTERNS)
def test_schedules_are_pure_functions_of_seed_and_board(pattern):
    a = generate_schedule(pattern, board_rng(7, "b0001"), REGIONS, 200)
    b = generate_schedule(pattern, board_rng(7, "b0001"), REGIONS, 200)
    assert a == b
    other_board = generate_schedule(pattern, board_rng(7, "b0002"), REGIONS, 200)
    other_seed = generate_schedule(pattern, board_rng(8, "b0001"), REGIONS, 200)
    assert a != other_board
    assert a != other_seed


@pytest.mark.parametrize("pattern", TRAFFIC_PATTERNS)
def test_schedule_shape_and_vocabulary(pattern):
    schedule = generate_schedule(pattern, board_rng(0, "b0000"), REGIONS, 150)
    assert len(schedule) == 150
    for gap, region, module in schedule:
        assert gap >= 1
        assert region in REGIONS
        assert module in REGIONS[region]


def test_thrash_always_switches_modules():
    schedule = generate_schedule("thrash", board_rng(3, "b0000"), REGIONS, 300)
    last = {}
    for _gap, region, module in schedule:
        if region in last:
            assert module != last[region], "thrash must never repeat a module"
        last[region] = module


def test_poisson_has_bursts():
    schedule = generate_schedule("poisson", board_rng(1, "b0000"), REGIONS, 500,
                                 mean_gap_ns=100_000)
    gaps = [gap for gap, _r, _m in schedule]
    # Bursts compress gaps by ~10x: the small-gap tail must be well below
    # the overall mean, and plentiful.
    small = [g for g in gaps if g < 20_000]
    assert len(small) > 25


def test_future_from_schedule_groups_per_region():
    schedule = [(10, "R0", "m1"), (5, "R1", "m0"), (7, "R0", "m2")]
    assert future_from_schedule(schedule) == {"R0": ["m1", "m2"], "R1": ["m0"]}


def test_unknown_pattern_and_bad_inputs():
    rng = board_rng(0, "b")
    with pytest.raises(ValueError, match="unknown traffic pattern"):
        generate_schedule("solar-flare", rng, REGIONS, 10)
    with pytest.raises(ValueError, match="at least one module"):
        generate_schedule("poisson", rng, {"R0": []}, 10)
    with pytest.raises(ValueError, match="n_requests"):
        generate_schedule("poisson", rng, REGIONS, -1)
    with pytest.raises(ValueError, match="mean_gap_ns"):
        generate_schedule("poisson", rng, REGIONS, 10, mean_gap_ns=-10)
    with pytest.raises(ValueError, match="mean_gap_ns"):
        generate_schedules("poisson", [rng], REGIONS, 10, mean_gap_ns=-10)


def _region_map(regions: int, modules: int) -> dict[str, list[str]]:
    return {f"R{r}": [f"m{m}" for m in range(modules)] for r in range(regions)}


@settings(max_examples=200, deadline=None)
@given(
    pattern=st.sampled_from(TRAFFIC_PATTERNS),
    seed=st.integers(0, 2**16),
    boards=st.integers(0, 6),
    n_requests=st.integers(0, 300),
    regions=st.sampled_from([1, 2, 3, 11]),
    modules=st.sampled_from([1, 2, 4, 11]),
    mean_gap_ns=st.sampled_from([0, 1, 3_000, 200_000, 20_000_000]),
)
def test_lockstep_generator_matches_the_scalar_oracle(
    pattern, seed, boards, n_requests, regions, modules, mean_gap_ns
):
    """Board b of the array set decodes to the scalar generator's list on
    board b's own stream; the decoded view round-trips through the tuple
    constructor."""
    region_map = _region_map(regions, modules)
    ids = [f"b{i:04d}" for i in range(boards)]
    schedules = generate_schedules(
        pattern, [board_rng(seed, b) for b in ids], region_map, n_requests, mean_gap_ns
    )
    assert len(schedules) == boards
    assert schedules.n_requests == n_requests
    for index, board_id in enumerate(ids):
        expected = generate_schedule(
            pattern, board_rng(seed, board_id), region_map, n_requests, mean_gap_ns
        )
        assert schedules[index] == expected, (board_id, pattern)
    packed = ScheduleSet.from_tuples(list(schedules), region_map, n_requests)
    for name in ("gaps", "regions", "modules"):
        assert np.array_equal(getattr(packed, name), getattr(schedules, name)), name
    assert list(packed) == list(schedules)


def test_lockstep_generator_finishes_rejection_runs_past_the_lookahead(monkeypatch):
    """With one region every region draw is randrange(1), which rejects half
    its words; this stream holds a run longer than the vector lookahead, so
    the word-by-word tail must take over and still match the oracle."""
    slow = []
    below_slow = traffic._BoardWords._below_slow

    def spy(self, board, n, shift):
        slow.append(board)
        return below_slow(self, board, n, shift)

    monkeypatch.setattr(traffic._BoardWords, "_below_slow", spy)
    region_map = {"R0": ["m0"]}
    ids = ["b0000", "b0001"]
    schedules = generate_schedules(
        "thrash", [board_rng(22, b) for b in ids], region_map, 300, 1_000
    )
    assert slow == [0]
    for index, board_id in enumerate(ids):
        assert schedules[index] == generate_schedule(
            "thrash", board_rng(22, board_id), region_map, 300, 1_000
        )


def test_array_set_indexes_regions_in_map_order():
    """From 11 regions up the generators' sorted pick order ("R10" < "R2")
    differs from the region-map order the engines index by: the raw
    arrays must hold map-order indices."""
    region_map = _region_map(11, 3)
    expected = generate_schedule("poisson", board_rng(1, "b0000"), region_map, 200)
    schedules = generate_schedules("poisson", [board_rng(1, "b0000")], region_map, 200)
    names = list(region_map)
    assert {"R10", "R2"} <= {region for _gap, region, _module in expected}
    assert schedules.regions[0].tolist() == [names.index(r) for _g, r, _m in expected]
    assert schedules.modules[0].tolist() == [region_map[r].index(m) for _g, r, m in expected]
