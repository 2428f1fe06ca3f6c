"""Search-restart sharding: determinism, budget slicing, merge semantics."""

import pytest

from repro.dfg.generators import multiregion_graph
from repro.dfg.library import default_library
from repro.search import (
    SearchConfig,
    merge_shard_results,
    run_search_sharded,
    shard_configs,
)
from repro.search.anneal import SearchResult


def small_problem():
    return multiregion_graph(n_groups=2, alternatives=2), default_library()


# -- shard planning ----------------------------------------------------------------


def test_shard_configs_slice_budget_exactly_like_sequential_limits():
    config = SearchConfig(budget=100, seed=5, restarts=3)
    shards = shard_configs(config)
    assert [s.restart_offset for s in shards] == [0, 1, 2]
    assert all(s.restarts == 1 for s in shards)
    # Slices reproduce the drivers' cumulative limits: 33, 33, 34.
    assert [s.budget for s in shards] == [33, 33, 34]
    assert sum(s.budget for s in shards) == config.budget


def test_shard_configs_respect_existing_offset():
    config = SearchConfig(budget=10, seed=0, restarts=2, restart_offset=4)
    assert [s.restart_offset for s in shard_configs(config)] == [4, 5]


def test_restart_offset_is_validated():
    with pytest.raises(ValueError, match="restart_offset"):
        SearchConfig(restart_offset=-1)


# -- the determinism acceptance criterion ------------------------------------------


def test_sharded_digest_identical_serial_vs_parallel():
    """jobs=0 (in-process shards) and jobs=2 (pooled workers) must agree
    bit-for-bit: same best state, same trajectory, same digest."""
    graph, library = small_problem()
    config = SearchConfig(budget=40, seed=3, restarts=3)
    serial = run_search_sharded(graph, library, method="anneal", config=config, jobs=0)
    pooled = run_search_sharded(graph, library, method="anneal", config=config, jobs=2)
    assert serial.digest() == pooled.digest()
    assert serial.best_state == pooled.best_state
    assert serial.trajectory == pooled.trajectory
    assert serial.evaluations == pooled.evaluations


def test_sharded_search_never_beats_nor_loses_to_itself_across_seeds():
    graph, library = small_problem()
    config = SearchConfig(budget=24, seed=11, restarts=2)
    once = run_search_sharded(graph, library, method="greedy", config=config, jobs=0)
    twice = run_search_sharded(graph, library, method="greedy", config=config, jobs=0)
    assert once.digest() == twice.digest()


def test_sharded_searched_optimum_not_worse_than_best_fixed():
    """Global restart 0 anchors to the frontier point, so the sharded
    search inherits search_multiregion's guarantee."""
    from repro.flows.designspace import search_multiregion

    graph, library = small_problem()
    report = search_multiregion(
        graph, library, method="anneal", budget=30, seed=0, restarts=2, jobs=2
    )
    assert report.gain <= 1.0
    assert report.result.restarts == 2


# -- merge semantics ---------------------------------------------------------------


def fake_shard(total_ns, trajectory, evaluations, accepted=0, pruned=0):
    from repro.search.space import SearchState
    from repro.search.objective import CostBreakdown

    state = SearchState(assign=(0,), placements=((0, 4),))
    cost = CostBreakdown(
        state_key=state.key(),
        total_ns=total_ns,
        makespan_ns=total_ns,
        reconfig_busy_ns=0.0,
        boundary_cost_ns=0.0,
        penalty_ns=0.0,
        penalty_units=0.0,
        violations=(),
        n_regions=1,
        n_reconfigs=0,
    )
    return SearchResult(
        method="anneal",
        best_state=state,
        best_cost=cost,
        trajectory=trajectory,
        evaluations=evaluations,
        accepted=accepted,
        pruned=pruned,
    )


def test_merge_rebases_trajectory_and_keeps_global_improvements_only():
    config = SearchConfig(budget=30, seed=0, restarts=3)
    shards = [
        fake_shard(100.0, [(1, 120.0), (4, 100.0)], evaluations=10, pruned=3),
        fake_shard(110.0, [(2, 110.0)], evaluations=10),  # never a global best
        fake_shard(90.0, [(1, 95.0), (6, 90.0)], evaluations=10, pruned=4),
    ]
    merged = merge_shard_results(shards, config, "anneal")
    assert merged.trajectory == [(1, 120.0), (4, 100.0), (21, 95.0), (26, 90.0)]
    assert merged.evaluations == 30
    assert merged.pruned == 7
    assert merged.best_cost.total_ns == 90.0
    assert merged.improved == 4
    assert merged.restarts == 3 and merged.seed == 0


def test_merge_breaks_cost_ties_by_earliest_restart():
    config = SearchConfig(budget=10, seed=0, restarts=2)
    first = fake_shard(50.0, [(1, 50.0)], evaluations=5, accepted=2)
    second = fake_shard(50.0, [(1, 50.0)], evaluations=5, accepted=3)
    merged = merge_shard_results([first, second], config, "anneal")
    assert merged.best_state is first.best_state
    assert merged.accepted == 5


def test_merge_rejects_empty_input():
    with pytest.raises(ValueError, match="zero shard"):
        merge_shard_results([], SearchConfig(), "anneal")


def test_failed_shard_raises_instead_of_silently_dropping(monkeypatch):
    """A dropped restart would silently change the digest, so a shard that
    exhausts its retries must fail the whole sharded search."""
    from repro.search.parallel import SearchRestartJob

    graph, library = small_problem()
    config = SearchConfig(budget=8, seed=0, restarts=2)

    def boom(self, attempt=1, cache=None):
        raise RuntimeError("injected shard failure")

    monkeypatch.setattr(SearchRestartJob, "execute", boom)
    with pytest.raises(RuntimeError, match="search sharding failed"):
        run_search_sharded(
            graph, library, method="anneal", config=config, jobs=0, retries=0
        )
