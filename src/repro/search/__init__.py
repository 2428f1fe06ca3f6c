"""Integrated partitioning + scheduling + floorplanning co-optimization.

The paper fixes three decisions before its flow ever runs: which conditioned
operations share a dynamic region (*partitioning*), how many regions the
fabric carves (*region count*), and where each region's column span sits
(*floorplanning*) — then schedules around them.  Chen et al. (1803.03748)
and Ding et al. (2212.05397) show these layers must be co-optimized on
heterogeneous fabrics.  This package makes the combined space searchable:

- :mod:`repro.search.space` — :class:`SearchState` encodes one candidate
  (assignment of conditioned operations to regions + per-region column
  spans) hashably and canonically; :class:`SearchSpace` generates seeded
  moves spanning all three layers (reassign / split / merge regions,
  shift / resize / swap column spans).
- :mod:`repro.search.objective` — :class:`CostEvaluator` prices a state by
  re-running the incremental reconfiguration-aware scheduler with
  floorplan-derived latencies, plus bus-macro boundary costs and graded
  feasibility penalties; evaluations are memoized per evaluator on the
  canonical state key.
- :mod:`repro.search.anneal` — a seeded simulated annealer plus greedy
  (random-restart hill-climbing) and pure random baselines, all drawing
  randomness from one :class:`numpy.random.SeedSequence` so equal seeds
  produce identical trajectories; progress emits ``repro.obs``
  spans/metrics and a per-iteration best-so-far trajectory.

A search runs in-process: :func:`run_search` drives one evaluator with one
memo.

High-level entry points live in :func:`repro.flows.designspace.search_multiregion`
and the ``repro search`` CLI subcommand.
"""

from repro.search.space import SearchSpace, SearchState, MOVE_KINDS
from repro.search.objective import CostBreakdown, CostEvaluator, CostWeights
from repro.search.anneal import (
    SEARCH_METHODS,
    SearchConfig,
    SearchResult,
    anneal,
    greedy,
    random_search,
    run_search,
)

__all__ = [
    "SearchSpace",
    "SearchState",
    "MOVE_KINDS",
    "CostBreakdown",
    "CostEvaluator",
    "CostWeights",
    "SEARCH_METHODS",
    "SearchConfig",
    "SearchResult",
    "anneal",
    "greedy",
    "random_search",
    "run_search",
]
