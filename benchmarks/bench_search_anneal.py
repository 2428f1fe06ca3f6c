"""X9 — annealed partition/schedule/floorplan co-optimization.

The paper fixes partitioning, region count and floorplan by hand before its
flow runs; the ``repro.search`` package searches the joint space instead.
This benchmark regenerates the acceptance evidence:

- the **fixed-sweep frontier** (every region count, paper-idiom packing)
  priced by the same :class:`~repro.search.objective.CostEvaluator`,
- the annealer's best against that frontier — the bound is
  ``anneal <= best fixed point`` within the evaluation budget,
- the annealer against the greedy and random baselines under one budget,
- a determinism digest asserted identical across two runs with the same
  seed, so any nondeterminism in the move generator, the objective or the
  SeedSequence plumbing fails the build.

Set ``SEARCH_SMOKE=1`` (CI) for a tiny-budget run (<30 s); assertions are
identical in both modes.  Writes ``BENCH_search_anneal.json``,
``search_frontier.txt`` and ``search_baselines.txt`` (full), or the same
names with a ``_smoke`` suffix, which are not committed (smoke).
"""

import os
import time

from conftest import write_bench_json, write_result

from repro.dfg.generators import multiregion_graph
from repro.dfg.library import default_library
from repro.flows.designspace import search_multiregion
from repro.search import CostEvaluator, SearchConfig, SearchSpace, run_search

SMOKE = os.environ.get("SEARCH_SMOKE", "") not in ("", "0")

N_GROUPS = 2 if SMOKE else 3
BUDGET = 40 if SMOKE else 400
RESTARTS = 2 if SMOKE else 4
SEED = 0


def _space():
    return SearchSpace(
        multiregion_graph(N_GROUPS, 2), default_library(), max_regions=N_GROUPS + 1
    )


def test_anneal_beats_or_matches_the_fixed_sweep():
    """Tentpole acceptance: searched optimum <= best fixed-sweep point."""
    t0 = time.perf_counter()
    report = search_multiregion(
        multiregion_graph(N_GROUPS, 2),
        default_library(),
        max_regions=N_GROUPS + 1,
        budget=BUDGET,
        seed=SEED,
        restarts=RESTARTS,
    )
    wall_s = time.perf_counter() - t0

    assert report.searched.total_ns <= report.best_fixed_cost_ns
    assert report.gain <= 1.0
    write_result("search_frontier_smoke" if SMOKE else "search_frontier", report.render())

    payload = {
        "smoke": SMOKE,
        "graph": report.graph,
        "budget": BUDGET,
        "seed": SEED,
        "restarts": RESTARTS,
        "wall_s": wall_s,
        "fixed_frontier_ns": {
            str(k): c.total_ns for k, c in sorted(report.fixed.items())
        },
        "best_fixed_k": report.best_fixed_k,
        "best_fixed_cost_ns": report.best_fixed_cost_ns,
        "anneal_cost_ns": report.searched.total_ns,
        "gain": report.gain,
        "evaluations": report.result.evaluations,
        "digest": report.result.digest(),
    }
    name = "BENCH_search_anneal_smoke" if SMOKE else "BENCH_search_anneal"
    write_bench_json(name, payload)


def test_anneal_is_no_worse_than_greedy_and_random():
    """One budget, three drivers: the annealer must hold the frontier."""
    space = _space()
    config = SearchConfig(budget=BUDGET, seed=SEED, restarts=RESTARTS)
    results = {
        method: run_search(space, CostEvaluator(space), config, method=method)
        for method in ("anneal", "greedy", "random")
    }
    assert (
        results["anneal"].best_cost.total_ns
        <= results["greedy"].best_cost.total_ns
    )
    assert (
        results["anneal"].best_cost.total_ns
        <= results["random"].best_cost.total_ns
    )
    lines = [f"{'method':<8} {'best (us)':>10} {'evals':>6} {'feasible':>9}"]
    for method, result in results.items():
        lines.append(
            f"{method:<8} {result.best_cost.total_ns / 1e3:>10.1f} "
            f"{result.evaluations:>6} {str(result.best_cost.feasible):>9}"
        )
    write_result("search_baselines_smoke" if SMOKE else "search_baselines", "\n".join(lines))


def test_search_is_deterministic_across_runs():
    """Same seed, same budget -> identical digest, trajectory and state."""
    space = _space()
    config = SearchConfig(budget=min(BUDGET, 60), seed=SEED, restarts=RESTARTS)
    first = run_search(space, CostEvaluator(space), config)
    second = run_search(space, CostEvaluator(space), config)
    assert first.digest() == second.digest(), (first.digest(), second.digest())
    assert first.trajectory == second.trajectory
    assert first.best_state == second.best_state


def test_memoization_pays_inside_one_search():
    """The canonical-state memo must absorb revisits: a search with budget B
    computes strictly fewer than B schedules once the walk starts cycling."""
    space = _space()
    evaluator = CostEvaluator(space)
    run_search(space, evaluator, SearchConfig(budget=min(BUDGET, 80), seed=1, restarts=1))
    assert evaluator.stats.requested > evaluator.stats.computed
    assert evaluator.stats.memo_hits > 0
