"""Tests for the memoizing cost evaluator."""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aaa import adequate
from repro.dfg.generators import conditioned_chain_graph, multiregion_graph
from repro.dfg.library import default_library
from repro.fabric.device import XC2V1000, XC2V2000, XC2V3000
from repro.flows.pipeline import ArtifactCache
from repro.reconfig.architectures import case_a_standalone, case_b_processor
from repro.search import CostEvaluator, CostWeights, SearchConfig, SearchSpace, SearchState, run_search
from repro.search import objective

LIBRARY = default_library()


@pytest.fixture(scope="module")
def space():
    return SearchSpace(multiregion_graph(2, 2), default_library())


def test_initial_state_is_feasible(space):
    cost = CostEvaluator(space).evaluate(space.initial_state())
    assert cost.feasible
    assert cost.violations == ()
    assert cost.penalty_ns == 0.0
    assert cost.makespan_ns > 0
    assert cost.reconfig_busy_ns > 0
    assert cost.boundary_cost_ns > 0
    assert cost.total_ns >= cost.makespan_ns


def test_total_is_the_weighted_sum(space):
    weights = CostWeights(makespan=1.0, reconfig_busy=0.5, boundary=2.0)
    cost = CostEvaluator(space, weights=weights).evaluate(space.initial_state())
    expected = (
        cost.makespan_ns + 0.5 * cost.reconfig_busy_ns + 2.0 * cost.boundary_cost_ns
    )
    assert cost.total_ns == pytest.approx(expected)


def test_overlapping_spans_are_penalized_not_rejected(space):
    ev = CostEvaluator(space)
    bad = SearchState(assign=(0, 0, 1, 1), placements=((10, 2), (10, 2)))
    cost = ev.evaluate(bad)
    assert not cost.feasible
    assert any("overlaps" in v for v in cost.violations)
    assert cost.penalty_ns > 0
    good = ev.evaluate(space.initial_state())
    assert cost.total_ns > good.total_ns


def test_touching_spans_are_not_penalized(space):
    ev = CostEvaluator(space)
    touching = SearchState(assign=(0, 0, 1, 1), placements=((10, 2), (12, 2)))
    cost = ev.evaluate(touching)
    assert not any("overlaps" in v for v in cost.violations)


def test_zero_width_span_is_priced_as_infeasible(space):
    ev = CostEvaluator(space)
    bad = SearchState(assign=(0, 0, 1, 1), placements=((10, 0), (20, 2)))
    cost = ev.evaluate(bad)
    assert not cost.feasible
    assert any("zero-width" in v for v in cost.violations)
    assert cost.penalty_ns > 0


def test_narrow_span_capacity_shortfall_is_graded(space):
    ev = CostEvaluator(space)
    # A span at the device's left edge holds no BRAM column, so a region
    # needing block RAM overflows it — priced as a graded penalty (1 unit
    # plus the fractional shortfall), while the packed fixed-sweep span for
    # the same partition fits cleanly.
    cramped = ev.evaluate(space.canonical([0, 0, 0, 0], [(0, 2)]))
    assert any("exceed span capacity" in v for v in cramped.violations)
    assert cramped.penalty_units > 1.0
    fitting = ev.evaluate(space.initial_state(1))
    assert not any("exceed span capacity" in v for v in fitting.violations)
    assert cramped.penalty_ns > fitting.penalty_ns


def test_memoization_within_one_evaluator(space):
    ev = CostEvaluator(space)
    s = space.initial_state()
    first = ev.evaluate(s)
    second = ev.evaluate(s)
    assert first is second
    assert ev.stats.requested == 2
    assert ev.stats.computed == 1
    assert ev.stats.memo_hits == 1


def test_artifact_cache_shares_evaluations_across_evaluators(space):
    cache = ArtifactCache()
    s = space.initial_state()
    a = CostEvaluator(space, cache=cache)
    first = a.evaluate(s)
    b = CostEvaluator(space, cache=cache)
    second = b.evaluate(s)
    assert b.stats.cache_hits == 1
    assert b.stats.computed == 0
    assert second.total_ns == first.total_ns
    assert second.state_key == first.state_key


def test_cache_key_depends_on_architecture_and_weights(space):
    s = space.initial_state()
    base = CostEvaluator(space)
    other_arch = CostEvaluator(space, architecture=case_b_processor())
    other_weights = CostEvaluator(space, weights=CostWeights(reconfig_busy=0.5))
    assert base.cache_key(s) != other_arch.cache_key(s)
    assert base.cache_key(s) != other_weights.cache_key(s)


def test_architecture_changes_the_reconfig_pricing(space):
    s = space.initial_state()
    a = CostEvaluator(space).evaluate(s)
    b = CostEvaluator(space, architecture=case_b_processor()).evaluate(s)
    assert a.reconfig_busy_ns != b.reconfig_busy_ns


def test_breakdown_round_trips_and_serializes(space):
    cost = CostEvaluator(space).evaluate(space.initial_state())
    clone = pickle.loads(pickle.dumps(cost))
    assert clone == cost
    payload = cost.to_dict()
    assert payload["feasible"] is True
    assert payload["state"] == cost.state_key
    assert payload["total_ns"] == cost.total_ns


def test_whole_device_span_has_no_boundary(space):
    ev = CostEvaluator(space)
    whole = SearchState(
        assign=(0, 0, 0, 0), placements=((0, space.device.clb_cols),)
    )
    cost = ev.evaluate(whole)
    assert any("whole device" in v for v in cost.violations)
    assert cost.boundary_cost_ns == 0


#: multi-group graphs, and one-group chains whose alternatives differ in size
search_graphs = st.one_of(
    st.builds(multiregion_graph, n_groups=st.integers(1, 3), alternatives=st.integers(2, 3)),
    st.builds(conditioned_chain_graph, length=st.integers(3, 5), alternatives=st.integers(2, 4)),
)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    graph=search_graphs,
    device=st.sampled_from((XC2V1000, XC2V2000, XC2V3000)),
    architecture=st.sampled_from((case_a_standalone, case_b_processor)),
    seed=st.integers(0, 2**31 - 1),
)
def test_one_evaluator_prices_like_fresh_ones(graph, device, architecture, seed):
    """An evaluator's shared cost models and region-pricing memos give every
    state the bound and price a fresh evaluator over a fresh space gives it,
    violation strings included."""
    max_regions = min(5, sum(op.is_conditioned for op in graph.operations))
    space = SearchSpace(graph, LIBRARY, device=device, max_regions=max_regions)
    shared = CostEvaluator(space, architecture())
    rng = np.random.default_rng(seed)
    state = space.random_state(rng)
    states = []
    for _ in range(30):
        states.append(state)
        state = space.neighbor(state, rng)
    n, cols = len(space.movable_ops), device.clb_cols
    rest = [1] * (n - 1)
    states += [
        space.canonical([i % 2 for i in range(n)], [(10, 6), (12, 6)]),
        space.canonical([0] * n, [(0, cols)]),
        # one span, priced for all members and then for one
        space.canonical([0] * n, [(0, 2)]),
        space.canonical([0] + rest, [(0, 2), (20, 2)]),
        space.canonical([i % 2 for i in range(n)], [(10, 0), (20, 2)]),
        # the same members covering the device as region D2, then as D3
        space.canonical([0, 0] + [1] * (n - 2), [(10, 2), (0, cols)]),
        space.canonical([0, 1] + [2] * (n - 2), [(10, 2), (20, 2), (0, cols)]),
    ]
    seen = set()
    for state in states:
        fresh_space = SearchSpace(graph, LIBRARY, device=device, max_regions=max_regions)
        fresh = CostEvaluator(fresh_space, architecture())
        if state.key() not in seen:
            assert shared.lower_bound(state) == fresh.lower_bound(state), state
        seen.add(state.key())
        assert shared.evaluate(state) == fresh.evaluate(state), state


def test_priced_state_pickles_like_a_fresh_model(space, monkeypatch):
    """Once a search has filled an evaluator's shared tables, a priced
    state's result pickles byte for byte like one from a fresh model: the
    model's state keeps its eight keys, memos empty."""
    priced = []

    def recording(*args, **kwargs):
        result = adequate(*args, **kwargs)
        priced.append((args, kwargs, result))
        return result

    monkeypatch.setattr(objective, "adequate", recording)
    run_search(space, CostEvaluator(space), SearchConfig(budget=40, seed=1))
    args, kwargs, result = priced[-1]
    model = result.costs
    assert model.tables["hops"] and model._duration_cache
    state = model.__getstate__()
    assert list(state) == [
        "graph",
        "architecture",
        "library",
        "reconfig_ns",
        "_route_cache",
        "_duration_cache",
        "_best_duration_cache",
        "_candidates_cache",
    ]
    assert state["reconfig_ns"] and all(value == {} for value in list(state.values())[4:])
    fresh = adequate(
        *args,
        constraints=kwargs["constraints"],
        scheduler=kwargs["scheduler"],
        reconfig_ns=dict(model.reconfig_ns),
        validate=False,
    )
    assert pickle.dumps(result) == pickle.dumps(fresh)
