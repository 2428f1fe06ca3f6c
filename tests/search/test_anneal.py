"""Tests for the annealer and baselines, above all determinism."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dfg.generators import multiregion_graph
from repro.dfg.library import default_library
from repro.search import (
    SEARCH_METHODS,
    CostEvaluator,
    SearchConfig,
    SearchSpace,
    anneal,
    greedy,
    random_search,
    run_search,
)


@pytest.fixture(scope="module")
def space():
    return SearchSpace(multiregion_graph(2, 2), default_library())


def run(space, method="anneal", **kwargs):
    config = SearchConfig(**{"budget": 40, "seed": 0, "restarts": 2, **kwargs})
    return run_search(space, CostEvaluator(space), config, method=method)


def test_config_validation():
    with pytest.raises(ValueError, match="budget"):
        SearchConfig(budget=0)
    with pytest.raises(ValueError, match="restarts"):
        SearchConfig(restarts=0)
    with pytest.raises(ValueError, match="cooling"):
        SearchConfig(cooling=1.0)


def test_unknown_method_rejected(space):
    with pytest.raises(ValueError, match="unknown search method"):
        run(space, method="tabu")


def test_method_registry_is_complete():
    assert set(SEARCH_METHODS) == {"anneal", "greedy", "random"}
    assert SEARCH_METHODS["anneal"] is anneal
    assert SEARCH_METHODS["greedy"] is greedy
    assert SEARCH_METHODS["random"] is random_search


def test_budget_is_respected(space):
    result = run(space, budget=25)
    assert result.evaluations <= 25


def test_anneal_never_worse_than_its_start(space):
    start = CostEvaluator(space).evaluate(space.initial_state())
    result = run(space, budget=60, seed=5)
    assert result.best_cost.total_ns <= start.total_ns


def test_trajectory_is_monotone_decreasing(space):
    result = run(space, budget=80, seed=2)
    totals = [total for _, total in result.trajectory]
    assert totals == sorted(totals, reverse=True)
    assert result.trajectory[0][0] == 1  # first evaluation seeds best-so-far
    assert result.improved == len(result.trajectory)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_same_seed_means_identical_digest(space, seed):
    """The satellite determinism property: equal seeds, equal trajectories."""
    a = run(space, budget=30, seed=seed)
    b = run(space, budget=30, seed=seed)
    assert a.trajectory == b.trajectory
    assert a.best_state == b.best_state
    assert a.digest() == b.digest()


def test_different_seeds_usually_differ(space):
    digests = {run(space, method="random", budget=20, seed=s).digest() for s in range(4)}
    assert len(digests) > 1


def test_all_methods_are_deterministic(space):
    for method in SEARCH_METHODS:
        a = run(space, method=method, budget=30, seed=9)
        b = run(space, method=method, budget=30, seed=9)
        assert a.digest() == b.digest(), method


def test_restarts_share_one_seed_sequence(space):
    """More restarts must change the walk (children are spawned per restart),
    while the same (seed, restarts) pair reproduces it exactly."""
    one = run(space, budget=40, seed=1, restarts=1)
    two = run(space, budget=40, seed=1, restarts=2)
    again = run(space, budget=40, seed=1, restarts=2)
    assert two.digest() == again.digest()
    assert one.digest() != two.digest()


def test_result_serializes_to_json(space):
    result = run(space, budget=20)
    payload = json.loads(json.dumps(result.to_dict()))
    assert payload["method"] == "anneal"
    assert payload["digest"] == result.digest()
    assert payload["best"]["total_ns"] == result.best_cost.total_ns
    assert payload["evaluations"] == result.evaluations


def test_summary_mentions_method_and_digest(space):
    result = run(space, budget=20)
    text = result.summary()
    assert "anneal" in text
    assert result.digest() in text


def test_search_emits_spans_and_metrics(space):
    from repro.obs import Tracer, use_telemetry, use_tracer

    tracer = Tracer()
    with use_tracer(tracer), use_telemetry() as hub:
        result = run(space, budget=20, restarts=2)
    names = [s.name for s in tracer.spans]
    assert "search:anneal" in names
    assert names.count("search:restart") >= 1
    # one cost sample per priced evaluation, windowed over the evaluation index
    store = hub.store("search")
    assert store.clock == "index"
    windows = store.series("search.cost_ns", method="anneal")
    assert sum(sketch.count for _, sketch in windows) == result.evaluations - result.pruned
    assert min(sketch.min for _, sketch in windows) == result.best_cost.total_ns
    # the counts are the result's to report: the annealer writes no totals
    assert hub.domains() == ["search"]


@pytest.mark.parametrize("method", sorted(SEARCH_METHODS))
def test_restart_rows_sum_to_the_result_inside_the_driver_span(space, method):
    """Every driver, random search's interleaved streams included, records
    one row per restart; tracing leaves the digest alone."""
    from repro.flows import flow_rows
    from repro.obs import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        traced = run(space, method=method, budget=30, restarts=3)
    assert traced.digest() == run(space, method=method, budget=30, restarts=3).digest()
    rows = [row for row in flow_rows(tracer.spans) if row.stage == "search:restart"]
    assert [row.flow for row in rows] == [f"search:multiregion2x2:{method}"] * 3
    for name in ("evaluations", "pruned", "accepted"):
        assert sum(row.metrics[name] for row in rows) == getattr(traced, name)
    (driver,) = [s for s in tracer.spans if s.name == f"search:{method}"]
    restarts = [s for s in tracer.spans if s.name == "search:restart"]
    assert [s.attributes["restart"] for s in restarts] == [0, 1, 2]
    assert all(s.context.parent_id == driver.context.span_id for s in restarts)
    assert all(driver.start_ns <= s.start_ns and s.end_ns <= driver.end_ns for s in restarts)
    # rows never overlap: the profile's total counts each restart's time once
    assert all(a.end_ns <= b.start_ns for a, b in zip(restarts, restarts[1:]))


def test_greedy_never_worse_than_its_start(space):
    result = run(space, method="greedy", budget=60, seed=4)
    start = CostEvaluator(space).evaluate(space.initial_state())
    assert result.best_cost.total_ns <= start.total_ns
