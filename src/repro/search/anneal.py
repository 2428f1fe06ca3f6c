"""Seeded search drivers: simulated annealing plus two baselines.

All three drivers walk the joint partition/schedule/floorplan space through
the same :class:`~repro.search.space.SearchSpace` move generator and the
same memoizing :class:`~repro.search.objective.CostEvaluator`, so their
results are directly comparable:

- :func:`anneal` — Metropolis acceptance under a geometric cooling
  schedule, with random restarts drawing fresh starting points;
- :func:`greedy` — first-improvement hill climbing with a patience
  counter (restarts make it the classic random-restart baseline);
- :func:`random_search` — independent uniform samples (the sanity floor).

Every driver draws *all* randomness from one
:class:`numpy.random.SeedSequence` rooted at ``config.seed``, with one
spawned child per restart — the same idiom
:func:`repro.mccdma.engine.frame_seed_sequences` uses — so equal seeds
reproduce identical trajectories bit-for-bit, which
:meth:`SearchResult.digest` asserts across processes.  Progress emits
``repro.obs`` spans (``search:<method>`` / ``search:restart``) and
counters, and every improvement lands on the best-so-far trajectory.
Every driver records one ``search:restart`` row (:mod:`repro.flows.observe`)
per restart, of flow ``search:<graph>:<method>``, carrying the evaluations,
pruned candidates and acceptances that restart spent, so ``--profile`` and
``--log-json`` show them.

Every driver asks :meth:`~repro.search.objective.CostEvaluator.lower_bound`
first and skips the schedule when the bound alone decides the candidate's
fate.  A skipped candidate still spends one evaluation, and the rules only
skip what the full price would reject, so the trajectory, the RNG stream
and the digest are those of pricing every candidate.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable, Iterator, Optional

import numpy as np

from repro.flows.observe import row_attributes
from repro.obs import Span, get_tracer
from repro.obs.telemetry import get_telemetry
from repro.search.objective import CostBreakdown, CostEvaluator
from repro.search.space import SearchSpace, SearchState

__all__ = [
    "SearchConfig",
    "SearchResult",
    "anneal",
    "greedy",
    "random_search",
    "run_search",
    "SEARCH_METHODS",
]


@dataclass(frozen=True)
class SearchConfig:
    """Knobs shared by every driver (annealing-specific ones are ignored
    by the baselines, so one config sweeps all methods fairly)."""

    #: Total evaluation budget across all restarts.
    budget: int = 400
    #: Root seed of the run's :class:`numpy.random.SeedSequence`.
    seed: int = 0
    #: Independent restarts; each gets a spawned child sequence.
    restarts: int = 2
    #: Starting temperature in cost units (ns); ``None`` auto-scales to a
    #: fraction of the initial state's cost.
    initial_temperature: Optional[float] = None
    #: Geometric cooling factor per iteration.
    cooling: float = 0.97
    #: Floor temperature — keeps ``exp`` arguments finite late in the run.
    min_temperature: float = 1.0
    #: Greedy only: consecutive non-improving moves before giving up a restart.
    patience: int = 40

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if not 0.0 < self.cooling < 1.0:
            raise ValueError("cooling must be in (0, 1)")


@dataclass
class SearchResult:
    """Outcome of one driver run (trajectory included for plotting/digests)."""

    method: str
    best_state: SearchState
    best_cost: CostBreakdown
    #: ``(evaluation_index, best_total_ns)`` at every improvement.
    trajectory: list[tuple[int, float]] = field(default_factory=list)
    evaluations: int = 0
    accepted: int = 0
    improved: int = 0
    #: Evaluations the lower bound decided without pricing (not digested:
    #: they change the cost, not the outcome).
    pruned: int = 0
    seed: int = 0
    restarts: int = 1

    def digest(self) -> str:
        """Content hash of the run — equal seeds must produce equal digests."""
        payload = json.dumps(
            {
                "method": self.method,
                "seed": self.seed,
                "restarts": self.restarts,
                "best": self.best_state.key(),
                "total_ns": self.best_cost.total_ns,
                "trajectory": self.trajectory,
                "evaluations": self.evaluations,
                "accepted": self.accepted,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "seed": self.seed,
            "restarts": self.restarts,
            "evaluations": self.evaluations,
            "accepted": self.accepted,
            "improved": self.improved,
            "pruned": self.pruned,
            "best_state": self.best_state.key(),
            "best": self.best_cost.to_dict(),
            "trajectory": self.trajectory,
            "digest": self.digest(),
        }

    def summary(self) -> str:
        cost = self.best_cost
        feasibility = "feasible" if cost.feasible else f"{len(cost.violations)} violation(s)"
        return (
            f"{self.method}: best {cost.total_ns / 1e3:.1f} us over {self.evaluations} "
            f"evaluation(s) ({cost.n_regions} region(s), {feasibility}; digest {self.digest()})"
        )


def _restart_rngs(config: SearchConfig) -> list[np.random.Generator]:
    """One child generator per restart from a single rooted sequence."""
    return [
        np.random.default_rng(child)
        for child in np.random.SeedSequence(config.seed).spawn(config.restarts)
    ]


class _Run:
    """Shared bookkeeping: budget, best-so-far, trajectory, counts, rows.

    Entered as a context manager, the run is the driver's ``search:<method>``
    span.  Work done under :meth:`restart` is charged to that restart's
    row: the evaluations, pruned candidates and acceptances it spent and
    the wall time it took.  The rows are recorded when the span ends, so
    interleaved restarts (random search) get one row each too.  Rows are
    laid end to end in restart order, none before its restart's first
    block: sequential restarts keep their own intervals.

    When an ambient telemetry hub is installed, the run streams a
    ``search.cost_ns`` sketch of priced candidates' costs over the
    *evaluation index* axis (the ``search`` domain): a converging search
    shows as the windowed cost quantiles settling.  Pruned candidates have
    no price, so the sketch holds ``evaluations - pruned`` samples.  The
    run's counts are facts of the finished :class:`SearchResult`
    (``repro search`` records them once).
    """

    def __init__(self, method: str, evaluator: CostEvaluator, config: SearchConfig):
        self.method = method
        self.evaluator = evaluator
        self.config = config
        self.evaluations = 0
        self.accepted = 0
        self.improved = 0
        self.pruned = 0
        self.trajectory: list[tuple[int, float]] = []
        self.best_state: Optional[SearchState] = None
        self.best_cost: Optional[CostBreakdown] = None
        hub = get_telemetry()
        self._tstore = hub.store("search") if hub is not None else None
        self._tracer = get_tracer()
        #: restart -> [first start (perf ns), wall ns, evaluations, pruned,
        #: accepted]; filled only while a tracer records
        self._rows: dict[int, list[int]] = {}

    def __enter__(self) -> "_Run":
        attributes = {"seed": self.config.seed, "budget": self.config.budget}
        self._span = self._tracer.span(f"search:{self.method}", attributes=attributes).start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        flow = f"search:{self.evaluator.space.graph.name}:{self.method}"
        start_ns = 0
        for restart, (first_ns, wall_ns, *counts) in sorted(self._rows.items()):
            start_ns = max(first_ns, start_ns)
            metrics = dict(zip(("evaluations", "pruned", "accepted"), counts))
            tracer.add_span(Span(
                name="search:restart",
                context=self._span.context.child_of(tracer.next_span_id()),
                start_ns=tracer.to_epoch_ns(start_ns),
                duration_ns=wall_ns,
                process=tracer.process,
                track=tracer.track,
                attributes=row_attributes(flow, metrics, restart=restart),
            ))
            start_ns += wall_ns
        self._span.__exit__(exc_type, exc, tb)

    @property
    def exhausted(self) -> bool:
        return self.evaluations >= self.config.budget

    def evaluate(self, state: SearchState) -> CostBreakdown:
        cost = self.evaluator.evaluate(state)
        self.evaluations += 1
        improved = self.best_cost is None or cost.total_ns < self.best_cost.total_ns
        if improved:
            self.best_state, self.best_cost = state, cost
            self.improved += 1
            self.trajectory.append((self.evaluations, cost.total_ns))
        if self._tstore is not None:
            self._tstore.observe(
                "search.cost_ns", self.evaluations, cost.total_ns, method=self.method
            )
        return cost

    def prune(self) -> None:
        """Spend one evaluation on a candidate its lower bound decided.

        Every rule prunes only candidates whose bound is at least the best
        cost, so a pruned candidate could not have improved the best.
        """
        self.evaluations += 1
        self.pruned += 1

    @contextmanager
    def restart(self, restart: int) -> Iterator[None]:
        """Charge the block's counts and wall time to ``restart``'s row."""
        if not self._tracer.enabled:
            yield
            return
        started = perf_counter_ns()
        before = (self.evaluations, self.pruned, self.accepted)
        yield
        row = self._rows.setdefault(restart, [started, 0, 0, 0, 0])
        row[1] += perf_counter_ns() - started
        row[2] += self.evaluations - before[0]
        row[3] += self.pruned - before[1]
        row[4] += self.accepted - before[2]

    def evaluate_below(self, state: SearchState, cutoff: float) -> Optional[CostBreakdown]:
        """Price ``state``, or prune it (returning ``None``) when its lower
        bound is already ``>= cutoff``."""
        if self.evaluator.lower_bound(state) >= cutoff:
            self.prune()
            return None
        return self.evaluate(state)

    def result(self) -> SearchResult:
        assert self.best_state is not None and self.best_cost is not None
        return SearchResult(
            method=self.method,
            best_state=self.best_state,
            best_cost=self.best_cost,
            trajectory=self.trajectory,
            evaluations=self.evaluations,
            accepted=self.accepted,
            improved=self.improved,
            pruned=self.pruned,
            seed=self.config.seed,
            restarts=self.config.restarts,
        )


def _start_state(
    space: SearchSpace, restart: int, rng: np.random.Generator
) -> SearchState:
    """Restart 0 starts from the deterministic fixed-sweep point; later
    restarts scatter uniformly so the search escapes that basin."""
    return space.initial_state() if restart == 0 else space.random_state(rng)


def anneal(
    space: SearchSpace,
    evaluator: CostEvaluator,
    config: SearchConfig = SearchConfig(),
) -> SearchResult:
    """Simulated annealing with Metropolis acceptance and restarts."""
    run = _Run("anneal", evaluator, config)
    with run:
        for restart, rng in enumerate(_restart_rngs(config)):
            # Budget is sliced across restarts (the last slice absorbs
            # rounding) so every spawned child actually walks.
            limit = config.budget * (restart + 1) // config.restarts
            if run.evaluations >= limit:
                continue
            with run.restart(restart):
                current = _start_state(space, restart, rng)
                current_cost = run.evaluate(current)
                temperature = config.initial_temperature
                if temperature is None:
                    temperature = max(config.min_temperature, 0.05 * current_cost.total_ns)
                while run.evaluations < limit:
                    candidate = space.neighbor(current, rng)
                    if candidate == current:
                        break  # move generator is stuck; spend budget elsewhere
                    scale = max(temperature, config.min_temperature)
                    # A bound above the current cost makes delta > 0 certain,
                    # so the Metropolis draw happens whatever the price: draw
                    # it first, and prune when it rejects even the bound.
                    bound = evaluator.lower_bound(candidate)
                    u = rng.random() if bound > current_cost.total_ns else None
                    if u is not None and u >= math.exp(-(bound - current_cost.total_ns) / scale):
                        run.prune()
                    else:
                        cost = run.evaluate(candidate)
                        delta = cost.total_ns - current_cost.total_ns
                        if delta <= 0 or (rng.random() if u is None else u) < math.exp(-delta / scale):
                            current, current_cost = candidate, cost
                            run.accepted += 1
                    temperature = max(config.min_temperature, temperature * config.cooling)
    return run.result()


def greedy(
    space: SearchSpace,
    evaluator: CostEvaluator,
    config: SearchConfig = SearchConfig(),
) -> SearchResult:
    """Random-restart first-improvement hill climbing."""
    run = _Run("greedy", evaluator, config)
    with run:
        for restart, rng in enumerate(_restart_rngs(config)):
            limit = config.budget * (restart + 1) // config.restarts
            if run.evaluations >= limit:
                continue
            with run.restart(restart):
                current = _start_state(space, restart, rng)
                current_cost = run.evaluate(current)
                stale = 0
                while run.evaluations < limit and stale < config.patience:
                    candidate = space.neighbor(current, rng)
                    if candidate == current:
                        break
                    cost = run.evaluate_below(candidate, current_cost.total_ns)
                    if cost is not None and cost.total_ns < current_cost.total_ns:
                        current, current_cost = candidate, cost
                        run.accepted += 1
                        stale = 0
                    else:
                        stale += 1
    return run.result()


def random_search(
    space: SearchSpace,
    evaluator: CostEvaluator,
    config: SearchConfig = SearchConfig(),
) -> SearchResult:
    """Independent uniform samples — the floor every driver must beat.

    The restarts' streams take turns, one sample each; restart 0 also owns
    the fixed-sweep start point."""
    run = _Run("random", evaluator, config)
    with run:
        rngs = _restart_rngs(config)
        with run.restart(0):
            run.evaluate(space.initial_state())
        index = 0
        while not run.exhausted:
            restart = index % len(rngs)
            index += 1
            with run.restart(restart):
                run.evaluate_below(space.random_state(rngs[restart]), run.best_cost.total_ns)
    return run.result()


SEARCH_METHODS: dict[str, Callable[[SearchSpace, CostEvaluator, SearchConfig], SearchResult]] = {
    "anneal": anneal,
    "greedy": greedy,
    "random": random_search,
}


def run_search(
    space: SearchSpace,
    evaluator: CostEvaluator,
    config: SearchConfig = SearchConfig(),
    method: str = "anneal",
) -> SearchResult:
    """Dispatch to a driver by name (``anneal`` / ``greedy`` / ``random``)."""
    try:
        driver = SEARCH_METHODS[method]
    except KeyError:
        raise ValueError(
            f"unknown search method {method!r}; expected one of {sorted(SEARCH_METHODS)}"
        ) from None
    return driver(space, evaluator, config)
