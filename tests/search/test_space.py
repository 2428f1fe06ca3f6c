"""Tests for the search-state encoding and move generator."""

import itertools

import numpy as np
import pytest

from repro.dfg.generators import conditioned_chain_graph, multiregion_graph
from repro.dfg.library import default_library
from repro.fabric.device import XC2V1000, XC2V2000
from repro.fabric.floorplan import MIN_WIDTH_CLB, WIDTH_STEP_CLB
from repro.search import MOVE_KINDS, SearchSpace, SearchState


@pytest.fixture(scope="module")
def space():
    return SearchSpace(multiregion_graph(2, 2), default_library())


def test_movable_ops_are_the_conditioned_operations(space):
    assert space.movable_ops == ("g0_alt0", "g0_alt1", "g1_alt0", "g1_alt1")


def test_rejects_graph_without_condition_groups():
    from repro.dfg.generators import chain_graph

    with pytest.raises(ValueError, match="no conditioned operations"):
        SearchSpace(chain_graph(4), default_library())


def test_state_key_is_stable(space):
    state = SearchState(assign=(0, 0, 1, 1), placements=((10, 2), (20, 4)))
    assert state.key() == "k2|a[0,0,1,1]|p[10+2;20+4]"
    assert str(state) == state.key()


def test_canonical_renumbers_by_first_appearance(space):
    a = space.canonical([1, 1, 0, 0], [(20, 2), (10, 2)])
    b = space.canonical([0, 0, 1, 1], [(10, 2), (20, 2)])
    assert a == b
    assert a.assign == (0, 0, 1, 1)
    assert a.placements == ((10, 2), (20, 2))


def test_canonical_drops_unused_placements(space):
    state = space.canonical([0, 0, 0, 0], [(10, 2), (20, 2), (30, 2)])
    assert state.n_regions == 1
    assert state.placements == ((10, 2),)


def test_initial_state_groups_share_regions(space):
    state = space.initial_state()
    assert state.n_regions == 2
    # Alternatives of the same condition group land in the same region.
    assert state.assign[0] == state.assign[1]
    assert state.assign[2] == state.assign[3]
    assert state.assign[0] != state.assign[2]


def test_initial_state_spans_are_legal_and_disjoint(space):
    state = space.initial_state()
    plan = space.floorplan_of(state)
    assert plan.violations() == []
    for col0, width in state.placements:
        assert width >= MIN_WIDTH_CLB
        assert width % WIDTH_STEP_CLB == 0
        assert 0 <= col0 and col0 + width <= space.device.clb_cols


def test_initial_state_respects_requested_region_count(space):
    assert space.initial_state(1).n_regions == 1
    with pytest.raises(ValueError, match="n_regions"):
        space.initial_state(space.max_regions + 1)


def test_random_state_is_deterministic_per_seed(space):
    a = space.random_state(np.random.default_rng(42))
    b = space.random_state(np.random.default_rng(42))
    c = space.random_state(np.random.default_rng(43))
    assert a == b
    assert a != c or a.key() == c.key()  # different seeds usually differ


def test_random_state_uses_every_region_index(space):
    for seed in range(20):
        state = space.random_state(np.random.default_rng(seed))
        assert sorted(set(state.assign)) == list(range(state.n_regions))


def test_neighbor_always_changes_the_state(space):
    rng = np.random.default_rng(7)
    state = space.initial_state()
    for _ in range(50):
        after = space.neighbor(state, rng)
        assert after != state
        state = after


def test_neighbor_keeps_per_region_geometry_legal(space):
    rng = np.random.default_rng(11)
    state = space.initial_state()
    for _ in range(100):
        state = space.neighbor(state, rng)
        for col0, width in state.placements:
            assert width >= MIN_WIDTH_CLB
            assert width % WIDTH_STEP_CLB == 0
            assert 0 <= col0 and col0 + width <= space.device.clb_cols
        assert 1 <= state.n_regions <= space.max_regions


def test_moves_cover_all_three_layers(space):
    """Over many draws the walk must change partition, region count and spans."""
    rng = np.random.default_rng(3)
    state = space.initial_state()
    seen_region_counts, seen_assigns, seen_spans = set(), set(), set()
    for _ in range(200):
        state = space.neighbor(state, rng)
        seen_region_counts.add(state.n_regions)
        seen_assigns.add(state.assign)
        seen_spans.add(state.placements)
    assert len(seen_region_counts) > 1
    assert len(seen_assigns) > 1
    assert len(seen_spans) > len(seen_assigns) // 2


def test_move_kinds_vocabulary():
    assert MOVE_KINDS == ("reassign", "split", "merge", "shift", "resize", "swap")


def test_region_need_is_worst_case_over_members(space):
    state = space.initial_state()
    need = space.region_need(tuple(state.region_ops()[0]))
    singles = [space._op_need[space.movable_ops[i]] for i in state.region_ops()[0]]
    for field_name, value in need.as_dict().items():
        assert value == max(getattr(s, field_name) for s in singles)


def test_member_memos_answer_for_their_own_members():
    space = SearchSpace(conditioned_chain_graph(5, 3), default_library())
    # the generated alternatives share port widths: give them distinct ones
    space._op_bits.update({"alt0": (8, 1), "alt1": (1, 16), "alt2": (4, 4)})
    subsets = [m for k in (1, 2, 3) for m in itertools.combinations(range(3), k)]
    for members in subsets + subsets[::-1]:
        needs = [space._op_need[space.movable_ops[i]].as_dict() for i in members]
        worst = {key: max(need[key] for need in needs) for key in needs[0]}
        assert space.region_need(members).as_dict() == worst
        bits = [space._op_bits[space.movable_ops[i]] for i in members]
        assert space.region_boundary_bits(members) == (max(b[0] for b in bits), max(b[1] for b in bits))


def test_boundary_bits_count_wires_not_tokens(space):
    # Each generic alternative has one 32-bit input and one 32-bit output
    # port (16 tokens each); the boundary crossing is the wire width.
    state = space.initial_state()
    bits_in, bits_out = space.region_boundary_bits(tuple(state.region_ops()[0]))
    assert bits_in == 32
    assert bits_out == 32


def test_describe_names_regions_and_ops(space):
    text = space.describe(space.initial_state())
    assert "D1" in text and "D2" in text
    assert "g0_alt0" in text


def test_smaller_device_constrains_spans():
    space = SearchSpace(multiregion_graph(2, 2), default_library(), device=XC2V1000)
    assert XC2V1000.clb_cols < XC2V2000.clb_cols
    rng = np.random.default_rng(0)
    state = space.initial_state()
    for _ in range(60):
        state = space.neighbor(state, rng)
        for col0, width in state.placements:
            assert col0 + width <= XC2V1000.clb_cols


def test_margin_below_one_rejected():
    with pytest.raises(ValueError, match="margin"):
        SearchSpace(multiregion_graph(2, 2), default_library(), margin=0.5)


def test_floorplan_of_injects_verbatim(space):
    state = SearchState(assign=(0, 0, 1, 1), placements=((5, 2), (5, 2)))
    plan = space.floorplan_of(state)
    assert set(plan.placements) == {"D1", "D2"}
    assert any("overlaps" in v for v in plan.violations())
