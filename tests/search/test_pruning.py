"""Bound pruning: the lower bound never exceeds the price, and pruning never
changes a search.

Two test-only evaluators bracket the real bound: one whose bound decides
nothing, so every driver prices every candidate as it did before pruning
existed, and one whose bound is the price itself, so every rule prunes
all it may.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dfg.generators import multiregion_graph
from repro.dfg.library import default_library
from repro.fabric.device import XC2V1000, XC2V2000, XC2V3000
from repro.reconfig.architectures import case_a_standalone, case_b_processor
from repro.search import (
    CostEvaluator,
    CostWeights,
    SearchConfig,
    SearchSpace,
    SearchState,
    run_search,
)

DEVICES = (XC2V1000, XC2V2000, XC2V3000)
ARCHITECTURES = (case_a_standalone, case_b_processor)
LIBRARY = default_library()
_SPACES: dict = {}


class UnboundedEvaluator(CostEvaluator):
    """The unpruned reference: no bound is known before pricing."""

    def lower_bound(self, state):
        return -math.inf


class ExactBoundEvaluator(CostEvaluator):
    """The tightest valid bound, the price itself: every rule then prunes
    all it may, so a rule that prunes one candidate too many shows."""

    def lower_bound(self, state):
        return self.evaluate(state).total_ns


def space_for(groups: int, alternatives: int, device, max_regions=None) -> SearchSpace:
    key = (groups, alternatives, device.name, max_regions)
    if key not in _SPACES:
        graph = multiregion_graph(n_groups=groups, alternatives=alternatives)
        _SPACES[key] = SearchSpace(graph, LIBRARY, device=device, max_regions=max_regions)
    return _SPACES[key]


def outcome(result) -> tuple:
    return (
        result.digest(),
        result.accepted,
        result.improved,
        result.evaluations,
        result.trajectory,
        result.best_state,
        result.best_cost,
    )


#: Default weights, and weights light enough on penalties that random
#: samples sometimes beat the start, where the random rule matters.
weights_strategy = st.one_of(
    st.just(CostWeights()),
    st.builds(
        CostWeights,
        makespan=st.floats(0.0, 4.0),
        reconfig_busy=st.floats(0.0, 4.0),
        boundary=st.floats(0.0, 4.0),
        penalty_unit_ns=st.floats(0.0, 1e9),
    ),
)


def test_pruning_never_changes_a_search():
    priced_fewer = []

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        groups=st.integers(1, 3),
        alternatives=st.integers(2, 3),
        device=st.sampled_from(DEVICES),
        architecture=st.sampled_from(ARCHITECTURES),
        max_regions=st.one_of(st.none(), st.integers(1, 4)),
        seed=st.integers(0, 2**31 - 1),
        restarts=st.integers(1, 3),
        budget=st.integers(5, 60),
        weights=weights_strategy,
    )
    def check(groups, alternatives, device, architecture, max_regions, seed, restarts, budget, weights):
        space = space_for(groups, alternatives, device, max_regions)
        config = SearchConfig(budget=budget, seed=seed, restarts=restarts)
        for method in ("anneal", "greedy", "random"):
            pruned, reference, tightest = (
                run_search(space, kind(space, architecture(), weights), config, method)
                for kind in (CostEvaluator, UnboundedEvaluator, ExactBoundEvaluator)
            )
            assert outcome(pruned) == outcome(reference) == outcome(tightest), method
            assert reference.pruned == 0
            priced = pruned.evaluations - pruned.pruned
            assert priced <= reference.evaluations
            priced_fewer.append(priced < reference.evaluations)

    check()
    assert any(priced_fewer)


@pytest.mark.parametrize("method", ["anneal", "greedy", "random"])
@pytest.mark.parametrize(
    "groups, device, weights, seed",
    [(2, XC2V2000, CostWeights(), 3), (1, XC2V1000, CostWeights(penalty_unit_ns=1e5), 0)],
)
def test_each_driver_prunes_and_still_improves(method, groups, device, weights, seed):
    space = space_for(groups, 2, device)
    config = SearchConfig(budget=80, seed=seed, restarts=2)
    evaluator = CostEvaluator(space, weights=weights)
    result = run_search(space, evaluator, config, method)
    reference = run_search(space, UnboundedEvaluator(space, weights=weights), config, method)
    tightest = run_search(space, ExactBoundEvaluator(space, weights=weights), config, method)
    assert outcome(result) == outcome(reference) == outcome(tightest)
    assert result.pruned > 0
    assert evaluator.stats.requested == result.evaluations - result.pruned
    if groups == 1:
        # light penalties on a small device: every driver improves on its
        # start, so a rule that pruned one improvement too many would show
        assert len(result.trajectory) > 1


def special_states(space: SearchSpace) -> list[SearchState]:
    cols = space.device.clb_cols
    n = len(space.movable_ops)
    return [
        # two regions on the same columns: overlap violation
        space.canonical([i % 2 for i in range(n)], [(10, 2), (10, 2)]),
        # partly overlapping spans: graded overlap on top of the violation
        space.canonical([i % 2 for i in range(n)], [(10, 6), (12, 6)]),
        # one region over the whole device: no static boundary
        space.canonical([0] * n, [(0, cols)]),
        # a narrow span at the left edge: capacity shortfall
        space.canonical([0] * n, [(0, 2)]),
        # a zero-width span: degenerate geometry
        space.canonical([i % 2 for i in range(n)], [(10, 0), (20, 2)]),
        space.initial_state(),
    ]


@settings(max_examples=25, deadline=None)
@given(
    groups=st.integers(1, 3),
    device=st.sampled_from(DEVICES),
    architecture=st.sampled_from(ARCHITECTURES),
    weights=weights_strategy,
    seed=st.integers(0, 2**31 - 1),
    steps=st.integers(0, 6),
)
def test_lower_bound_never_exceeds_the_total(groups, device, architecture, weights, seed, steps):
    space = space_for(groups, 2, device)
    rng = np.random.default_rng(seed)
    state = space.random_state(rng)
    states = [state]
    for _ in range(steps):
        state = space.neighbor(state, rng)
        states.append(state)
    states.extend(special_states(space))
    for state in states:
        evaluator = CostEvaluator(space, architecture(), weights=weights)
        bound = evaluator.lower_bound(state)
        cost = evaluator.evaluate(state)
        assert bound <= cost.total_ns, state
        # the bound is the total's two trailing terms, summed the same way
        assert bound == weights.boundary * cost.boundary_cost_ns + cost.penalty_ns
        # a memoized state answers with its exact total
        assert evaluator.lower_bound(state) == cost.total_ns


def test_bound_hand_off_prices_like_a_fresh_evaluator():
    space = space_for(2, 2, XC2V2000)
    first, second = special_states(space)[:2]
    evaluator = CostEvaluator(space)
    evaluator.lower_bound(first)
    # a different state evaluated after the bound must not reuse its part
    assert evaluator.evaluate(second) == CostEvaluator(space).evaluate(second)
    evaluator.lower_bound(first)
    assert evaluator.evaluate(first) == CostEvaluator(space).evaluate(first)


@pytest.mark.parametrize("field", ["makespan", "reconfig_busy", "boundary", "penalty_unit_ns"])
@pytest.mark.parametrize("value", [-1.0, float("nan")])
def test_weights_must_be_non_negative(field, value):
    with pytest.raises(ValueError, match=field):
        CostWeights(**{field: value})


def test_pruned_is_reported_but_not_digested():
    space = space_for(2, 2, XC2V2000)
    result = run_search(space, CostEvaluator(space), SearchConfig(budget=60, seed=1))
    assert result.pruned > 0
    assert result.to_dict()["pruned"] == result.pruned
    digest = result.digest()
    result.pruned += 1
    assert result.digest() == digest
    assert f"over {result.evaluations} evaluation(s)" in result.summary()
    assert "pruned" not in result.summary()

