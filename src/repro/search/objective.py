"""Deterministic cost evaluation of candidate states.

One :meth:`CostEvaluator.evaluate` call prices a :class:`SearchState` by
actually running the decision stack it encodes:

1. **floorplan** — the state's column spans become a
   :class:`~repro.fabric.floorplan.Floorplan`; structural violations
   (overlaps, degenerate spans), capacity shortfalls against each region's
   worst-case variant, and bus-macro infeasibility become *graded*
   penalties, so the annealer can walk through slightly-infeasible states
   instead of bouncing off a cliff;
2. **latency** — each region's partial-bitstream size (heterogeneous
   BRAM/multiplier columns inside the span included, per the device's
   frame model) runs through the reconfiguration architecture's analytic
   latency estimate;
3. **scheduling** — the incremental
   :class:`~repro.aaa.recon_aware.ReconfigAwareScheduler` re-schedules the
   graph with the state's pins and latencies (the fast re-evaluation PR 3
   built is exactly what makes this inner loop affordable);
4. **boundary** — every region boundary is priced with
   :func:`repro.fabric.busmacro.boundary_cost` (monotone in crossing bits,
   heterogeneous-column premium).

The total is a weighted sum in nanoseconds.  Evaluations are pure functions
of ``(space, architecture, weights, state)``, memoized per evaluator on the
canonical state key.

Steps 1, 2 and 4 need no schedule.  :meth:`CostEvaluator.lower_bound` prices
them alone: the boundary and penalty terms of the total, which can never
exceed it.  The search drivers skip step 3 whenever that bound already
decides a candidate's fate.

What does not depend on the candidate is built once per evaluator: one
board and one base :class:`~repro.aaa.costs.CostModel` per region count
(each state schedules on :meth:`~repro.aaa.costs.CostModel.with_latencies`
of it, so durations, routes, tail ranks and hop lists are shared), and the
region pricing memoized per member tuple, span and region index.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

from repro.aaa.adequation import adequate
from repro.aaa.costs import CostModel
from repro.aaa.mapping import MappingConstraints
from repro.aaa.recon_aware import ReconfigAwareScheduler
from repro.arch.boards import sundance_board
from repro.fabric.busmacro import BusMacroError, boundary_cost, macros_needed
from repro.fabric.resources import ResourceVector
from repro.reconfig.architectures import ReconfigArchitecture, case_a_standalone
from repro.search.space import SearchSpace, SearchState

__all__ = ["CostWeights", "CostBreakdown", "CostEvaluator"]

#: Normalizer for graded overlap penalties (columns of overlap per unit).
WIDTHS_NORM = 4.0


@dataclass(frozen=True)
class CostWeights:
    """Weights of the combined objective (everything in nanoseconds)."""

    #: Iteration period of the refined schedule.
    makespan: float = 1.0
    #: Total reconfiguration busy time — prices configuration-port pressure
    #: even when prefetching hides it from the critical path.
    reconfig_busy: float = 0.25
    #: Bus-macro bridge cost per region boundary.
    boundary: float = 1.0
    #: Penalty per violation unit (structural violation = 1 unit, capacity
    #: shortfall and span overlap scale fractionally).  Dominates every
    #: legitimate makespan so infeasible states always lose to feasible ones.
    penalty_unit_ns: float = 50e6

    def __post_init__(self):
        # Non-negative weights keep every term of the total >= 0, which is
        # what makes CostEvaluator.lower_bound a bound.
        for weight in fields(self):
            value = getattr(self, weight.name)
            if not value >= 0.0:
                raise ValueError(f"weight {weight.name} must be >= 0, got {value}")


@dataclass(frozen=True)
class CostBreakdown:
    """Priced account of one state (the objective's full output)."""

    state_key: str
    total_ns: float
    makespan_ns: int
    reconfig_busy_ns: int
    boundary_cost_ns: int
    penalty_ns: float
    penalty_units: float
    violations: tuple[str, ...]
    n_regions: int
    n_reconfigs: int

    @property
    def feasible(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "state": self.state_key,
            "total_ns": self.total_ns,
            "makespan_ns": self.makespan_ns,
            "reconfig_busy_ns": self.reconfig_busy_ns,
            "boundary_cost_ns": self.boundary_cost_ns,
            "penalty_ns": self.penalty_ns,
            "feasible": self.feasible,
            "violations": list(self.violations),
            "n_regions": self.n_regions,
            "n_reconfigs": self.n_reconfigs,
        }


@dataclass
class EvaluatorStats:
    """Evaluation accounting (mirrors the scheduler-stats idiom)."""

    requested: int = 0
    computed: int = 0
    memo_hits: int = 0


class _Static(NamedTuple):
    """The part of one state's price that needs no schedule."""

    state_key: str
    violations: list[str]
    penalty_units: float
    reconfig_ns: dict[str, int]
    boundary_ns: int


class CostEvaluator:
    """Memoizing objective over one :class:`SearchSpace`."""

    def __init__(
        self,
        space: SearchSpace,
        architecture: Optional[ReconfigArchitecture] = None,
        weights: CostWeights = CostWeights(),
    ):
        self.space = space
        self.architecture = architecture or case_a_standalone()
        self.weights = weights
        self.stats = EvaluatorStats()
        self._memo: dict[str, CostBreakdown] = {}
        #: region count -> cost model of that count's board, without
        #: latencies: every state of that count schedules on
        #: CostModel.with_latencies of it
        self._models: dict[int, CostModel] = {}
        self._latency_by_span: dict[tuple[int, int], int] = {}
        self._capacity_by_span: dict[tuple[int, int], ResourceVector] = {}
        #: (members, span) -> capacity shortfall; (region, members, span) ->
        #: (boundary ns, violations)
        self._shortfall_memo: dict[tuple[tuple[int, ...], tuple[int, int]], float] = {}
        self._boundary_memo: dict[
            tuple[int, tuple[int, ...], tuple[int, int]], tuple[int, tuple[str, ...]]
        ] = {}
        #: the static part the last lower_bound() computed, handed to the
        #: pricing of that same state (one slot, not a second memo)
        self._static: Optional[_Static] = None

    # -- plumbing ----------------------------------------------------------------

    def _model_for(self, n_regions: int, reconfig_ns: dict[str, int]) -> CostModel:
        base = self._models.get(n_regions)
        if base is None:
            board = sundance_board(n_dynamic=n_regions, device=self.space.device)
            base = CostModel(self.space.graph, board.architecture, self.space.library)
            self._models[n_regions] = base
        return base.with_latencies(reconfig_ns)

    def _span_latency_ns(self, col0: int, width: int) -> int:
        key = (col0, width)
        latency = self._latency_by_span.get(key)
        if latency is None:
            nbytes = self.space.device.partial_bitstream_bytes(col0, width)
            latency = self.architecture.estimate_latency_ns(nbytes)
            self._latency_by_span[key] = latency
        return latency

    # -- the objective -----------------------------------------------------------

    def lower_bound(self, state: SearchState) -> float:
        """A floor on ``evaluate(state).total_ns`` that needs no schedule.

        It is the boundary and penalty terms of the total: the same two
        products, summed as the total sums its trailing terms.  The terms
        before them are non-negative, so the bound never exceeds the total,
        in floating point too.  A memoized state returns its exact total.
        """
        hit = self._memo.get(state.key())
        if hit is not None:
            return hit.total_ns
        static = self._static = self._static_part(state)
        w = self.weights
        return w.boundary * static.boundary_ns + w.penalty_unit_ns * static.penalty_units

    def evaluate(self, state: SearchState) -> CostBreakdown:
        self.stats.requested += 1
        memo_key = state.key()
        hit = self._memo.get(memo_key)
        if hit is not None:
            self.stats.memo_hits += 1
            return hit
        breakdown = self._memo[memo_key] = self._compute(state)
        self.stats.computed += 1
        return breakdown

    def _static_part(self, state: SearchState) -> _Static:
        space, device = self.space, self.space.device
        violations: list[str] = []
        penalty_units = 0.0

        # 1. Floorplan structure (zero-width / step / bounds / overlaps).
        plan = space.floorplan_of(state)
        structural = plan.violations()
        violations.extend(structural)
        penalty_units += float(len(structural))
        overlap_cols = self._overlap_columns(state)
        if overlap_cols:
            # Graded on top of the pairwise-overlap violation: wider
            # overlaps are worse than a one-column graze.
            penalty_units += overlap_cols / WIDTHS_NORM

        # 2. Capacity and boundary per region.
        reconfig_ns: dict[str, int] = {}
        boundary_ns = 0
        members = state.region_ops()
        for region, span in enumerate(state.placements):
            name = space.region_name(region)
            col0, width = span
            span_ok = width > 0 and 0 <= col0 and col0 + width <= device.clb_cols
            if span_ok:
                ops = tuple(members[region])
                shortfall = self._span_shortfall(ops, span)
                if shortfall > 0.0:
                    violations.append(
                        f"region {name}: variants exceed span capacity by {shortfall:.0%}"
                    )
                    penalty_units += 1.0 + shortfall
                reconfig_ns[name] = self._span_latency_ns(col0, width)
                cost_ns, messages = self._boundary(region, ops, span)
                violations.extend(messages)
                boundary_ns += cost_ns
            else:
                # Degenerate span: price a full-device reconfiguration and
                # let the structural violation carry the penalty.
                reconfig_ns[name] = self.architecture.estimate_latency_ns(
                    -(-device.full_bitstream_bits // 8)
                )
        return _Static(state.key(), violations, penalty_units, reconfig_ns, boundary_ns)

    def _compute(self, state: SearchState) -> CostBreakdown:
        space = self.space
        static, self._static = self._static, None
        if static is None or static.state_key != state.key():
            static = self._static_part(state)

        # 3. Scheduling with the state's pins and floorplan-derived latencies.
        costs = self._model_for(state.n_regions, static.reconfig_ns)
        constraints = MappingConstraints()
        for op_idx, region in enumerate(state.assign):
            constraints.pin(space.movable_ops[op_idx], space.region_name(region))
        result = adequate(
            space.graph,
            costs.architecture,
            space.library,
            constraints=constraints,
            scheduler=ReconfigAwareScheduler,
            validate=False,
            costs=costs,
        )
        makespan_ns = result.makespan_ns
        reconfigs = result.schedule.reconfigs
        reconfig_busy_ns = sum(r.duration for r in reconfigs)

        w = self.weights
        penalty_ns = w.penalty_unit_ns * static.penalty_units
        # lower_bound() sums the last two terms alone: keep them last.
        total = (
            w.makespan * makespan_ns
            + w.reconfig_busy * reconfig_busy_ns
            + w.boundary * static.boundary_ns
            + penalty_ns
        )
        return CostBreakdown(
            state_key=state.key(),
            total_ns=total,
            makespan_ns=makespan_ns,
            reconfig_busy_ns=reconfig_busy_ns,
            boundary_cost_ns=static.boundary_ns,
            penalty_ns=penalty_ns,
            penalty_units=static.penalty_units,
            violations=tuple(static.violations),
            n_regions=state.n_regions,
            n_reconfigs=len(reconfigs),
        )

    # -- pieces ------------------------------------------------------------------

    def _span_shortfall(self, members: tuple[int, ...], span: tuple[int, int]) -> float:
        key = (members, span)
        shortfall = self._shortfall_memo.get(key)
        if shortfall is None:
            capacity = self._capacity_by_span.get(span)
            if capacity is None:
                capacity = self.space.device.column_span_capacity(*span)
                self._capacity_by_span[span] = capacity
            shortfall = self._shortfall(self.space.region_need(members), capacity)
            self._shortfall_memo[key] = shortfall
        return shortfall

    def _boundary(
        self, region: int, members: tuple[int, ...], span: tuple[int, int]
    ) -> tuple[int, tuple[str, ...]]:
        """The boundary's price and the violations it raises (they name the
        region, hence the region index in the memo key)."""
        key = (region, members, span)
        priced = self._boundary_memo.get(key)
        if priced is None:
            priced = self._boundary_memo[key] = self._price_boundary(region, members, span)
        return priced

    def _price_boundary(
        self, region: int, members: tuple[int, ...], span: tuple[int, int]
    ) -> tuple[int, tuple[str, ...]]:
        space, device = self.space, self.space.device
        col0, width = span
        bits_in, bits_out = space.region_boundary_bits(members)
        if col0 > 0:
            column = col0
        elif col0 + width < device.clb_cols:
            column = col0 + width
        else:
            return 0, (
                f"region {space.region_name(region)} covers the whole device; no static boundary",
            )
        try:
            cost = boundary_cost(device, column, bits_in, bits_out)
        except BusMacroError as err:
            return 0, (str(err),)
        if macros_needed(bits_in) + macros_needed(bits_out) > device.clb_rows:
            return cost.cost_ns, (
                f"region {space.region_name(region)}: {cost.macros} bus macros exceed "
                f"device height {device.clb_rows}",
            )
        return cost.cost_ns, ()

    def _overlap_columns(self, state: SearchState) -> int:
        total = 0
        spans = state.placements
        for i in range(len(spans)):
            c0, w0 = spans[i]
            for j in range(i + 1, len(spans)):
                c1, w1 = spans[j]
                total += max(0, min(c0 + w0, c1 + w1) - max(c0, c1))
        return total

    @staticmethod
    def _shortfall(need, cap) -> float:
        """Worst fractional overflow of ``need`` over ``cap`` (0.0 = fits)."""
        worst = 0.0
        for field_name, value in need.as_dict().items():
            have = getattr(cap, field_name)
            if value > have:
                worst = max(worst, (value - have) / max(1, value))
        return worst
