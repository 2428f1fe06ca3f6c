"""List schedulers: shared machinery plus the SynDEx-like heuristic.

The SynDEx heuristic is a greedy *schedule-pressure* list scheduler: at each
step it evaluates every ready operation on every feasible operator, keeps the
best placement per operation (earliest completion, communications included),
then commits the operation whose best placement is most critical — i.e.
whose completion plus remaining critical path to the sinks is largest.

That inner loop is the hottest path in the repo, and it used to re-filter
and re-sort the entire committed schedule for every candidate evaluation —
O(n³ log n) over the whole run.  The machinery here is now incremental:

- :class:`~repro.aaa.schedule.Schedule` maintains sorted per-resource
  timelines, so timeline queries are lookups, not sweeps;
- ready-time **frontiers** are kept per operator (max committed end per
  condition-case) and per medium (max committed end per source/destination
  condition pair), making ``_operator_ready`` / ``_medium_ready`` O(#cases)
  instead of O(#committed);
- exclusivity checks go through a factored condition index (operation name →
  ``(group, case)``), the scheduler-side counterpart of the O(1)
  :meth:`repro.dfg.graph.AlgorithmGraph.exclusive`;
- candidate :class:`Placement`\\ s are **memoized across commit steps** with
  dirty-set invalidation: committing an operation only invalidates cached
  placements that touch the committed operator, the media its transfers
  used, or the operation itself.

Tables that depend only on the graph and the costs' latency-free lookups —
tail ranks, the successor map, per-edge hop lists — live in
:attr:`CostModel.tables <repro.aaa.costs.CostModel.tables>`, so runs on one
model, or on models :meth:`~repro.aaa.costs.CostModel.with_latencies`
derives from it, build them once.

Every cached value is a pure function of state that the dirty sets track,
so the produced schedules are **byte-identical** to the naive reference
path — pass ``incremental=False`` to any scheduler to get the original
re-scanning implementation, which the digest property tests compare against.
All operator/medium bookkeeping is keyed by *name*, never object identity,
so graphs and schedules that round-tripped through the artifact cache
behave exactly like resident ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Optional, TypeVar

from repro.aaa.costs import CostModel
from repro.aaa.mapping import MappingConstraints
from repro.aaa.schedule import Schedule, ScheduledOp, ScheduledReconfig, ScheduledTransfer
from repro.arch.operator import Operator
from repro.dfg.graph import AlgorithmGraph, Edge
from repro.dfg.operations import Operation

__all__ = ["Placement", "SchedulerStats", "ListSchedulerBase", "SynDExScheduler"]

#: Condition key of an operation: ``None`` or ``(group name, case value)``.
CondKey = Optional[tuple[str, Hashable]]

_T = TypeVar("_T")


def _excl(a: CondKey, b: CondKey) -> bool:
    """Exclusivity on condition keys (mirrors ``AlgorithmGraph.exclusive``)."""
    return a is not None and b is not None and a[0] == b[0] and a[1] != b[1]


_EMPTY_DICT: dict = {}


@dataclass
class Placement:
    """A tentative placement of one operation, transfers included."""

    op: Operation
    operator: Operator
    start: int
    end: int
    transfers: list[ScheduledTransfer]
    reconfig: Optional["ScheduledReconfig"] = None


@dataclass
class SchedulerStats:
    """Placement-evaluation accounting for one scheduler run.

    ``placements_requested`` counts every candidate evaluation the heuristic
    asked for — exactly what the naive implementation would have computed —
    while ``placements_evaluated`` counts the ones actually computed; the
    difference is served by the cross-step memo.  The flow pipeline surfaces
    these as the adequation stages' row metrics (``FlowResult.events`` and
    the ``metric.*`` attributes of their ``stage:`` spans).
    """

    placements_requested: int = 0
    placements_evaluated: int = 0
    placement_cache_hits: int = 0
    operations_committed: int = 0

    def to_dict(self) -> dict:
        return {
            "placements_requested": self.placements_requested,
            "placements_evaluated": self.placements_evaluated,
            "placement_cache_hits": self.placement_cache_hits,
            "operations_committed": self.operations_committed,
        }


class ListSchedulerBase:
    """Common state and placement machinery for all list schedulers.

    ``incremental=False`` selects the retained naive reference path: full
    timeline rescans and no placement memo, bit-for-bit the pre-index
    behavior.  It exists for the byte-identity property tests and the
    scaling benchmark's baseline; production callers never need it.
    """

    def __init__(
        self,
        costs: CostModel,
        constraints: Optional[MappingConstraints] = None,
        incremental: bool = True,
    ):
        self.costs = costs
        self.graph: AlgorithmGraph = costs.graph
        self.constraints = constraints or MappingConstraints()
        self.schedule = Schedule()
        self.incremental = incremental
        self.stats = SchedulerStats()
        self._placed: dict[str, ScheduledOp] = {}
        #: operation name -> condition key (factored exclusivity index).
        self._cond: dict[str, CondKey] = {
            op.name: (op.condition.group, op.condition.value) if op.condition else None
            for op in self.graph.operations
        }
        #: operator name -> condition key -> max committed end.
        self._op_frontier: dict[str, dict[CondKey, int]] = {}
        #: medium name -> (src cond key, dst cond key) -> max committed end.
        self._med_frontier: dict[str, dict[tuple[CondKey, CondKey], int]] = {}
        #: dynamic operator name -> condition value -> max reconfig end.
        self._rec_frontier: dict[str, dict[Hashable, int]] = {}
        #: (operation name, operator name) -> (placement, media it read).
        self._placement_cache: dict[tuple[str, str], tuple[Placement, frozenset[str]]] = {}
        self._candidates_cache: dict[str, list[Operator]] = {}
        #: (operation name, operator name) -> static communication plan: the
        #: predecessor ends, routes and per-hop durations are fixed once the
        #: predecessors are placed (and they always are before the operation
        #: becomes ready), so each re-evaluation only folds the current
        #: medium frontiers over a precomputed hop list.
        self._comm_plan: dict[
            tuple[str, str], tuple[tuple[tuple[int, tuple], ...], frozenset[str], int]
        ] = {}
        #: (consumer name, input port, source operator name, destination
        #: operator name) -> hop list (per hop: medium, transfer ns,
        #: condition keys): the part of a communication plan that no
        #: placement changes.
        self._hops: dict[tuple[str, str, str, str], tuple[tuple, ...]] = self._table("hops", dict)
        #: operation name -> cached schedule pressure; an entry is valid
        #: exactly while none of the operation's cached placements has been
        #: invalidated (pressure is a pure function of those placements).
        self._pressure_cache: dict[str, int] = {}
        #: one copy of the graph's cached topological order per run — the
        #: graph is frozen during scheduling, so ranks, ready-list seeding
        #: and selection order can share it.
        self._topo: list[Operation] = self.graph.topological_order()

    def _table(self, name: str, build: Callable[[], _T]) -> _T:
        """``costs.tables[name]``, built on first use.

        A table here depends only on the graph and the costs' latency-free
        lookups, so every run on the cost model (or on one derived from it
        by :meth:`~repro.aaa.costs.CostModel.with_latencies`) shares it.
        """
        table = self.costs.tables.get(name)
        if table is None:
            table = self.costs.tables[name] = build()
        return table

    # -- naive reference sweeps -------------------------------------------------
    #
    # The pre-index implementation re-filtered and re-sorted the whole
    # committed schedule on every timeline query.  The naive path reproduces
    # that behavior (and its cost) verbatim so the byte-identity property
    # tests and the scaling benchmark compare against the true seed, not an
    # accidentally index-accelerated hybrid.

    def _naive_of_operator(self, name: str) -> list[ScheduledOp]:
        return sorted(
            (s for s in self.schedule.ops if s.operator.name == name),
            key=lambda s: (s.start, s.end),
        )

    def _naive_of_medium(self, name: str) -> list[ScheduledTransfer]:
        return sorted(
            (t for t in self.schedule.transfers if t.medium.name == name),
            key=lambda t: (t.start, t.end),
        )

    def _naive_reconfigs_of(self, name: str) -> list[ScheduledReconfig]:
        return sorted(
            (r for r in self.schedule.reconfigs if r.operator.name == name),
            key=lambda r: (r.start, r.end),
        )

    # -- timeline helpers ------------------------------------------------------

    def _operator_ready(self, op: Operation, operator: Operator) -> int:
        """Earliest time ``operator`` can start ``op`` (append-only timeline;
        exclusive alternatives may overlap)."""
        if not self.incremental:
            ready = 0
            for s in self._naive_of_operator(operator.name):
                if not self.graph.exclusive(op, s.op):
                    ready = max(ready, s.end)
            return ready
        ck = self._cond.get(op.name)
        ready = 0
        for key, end in self._op_frontier.get(operator.name, _EMPTY_DICT).items():
            if end > ready and not _excl(ck, key):
                ready = end
        return ready

    def _medium_ready(self, edge: Edge, medium_name: str) -> int:
        """Earliest time ``medium`` can carry ``edge`` (exclusivity-aware)."""
        if not self.incremental:
            ready = 0
            for t in self._naive_of_medium(medium_name):
                if self.graph.exclusive(edge.src, t.edge.src):
                    continue
                if self.graph.exclusive(edge.dst, t.edge.dst):
                    continue
                ready = max(ready, t.end)
            return ready
        src_ck = self._cond.get(edge.src.name)
        dst_ck = self._cond.get(edge.dst.name)
        ready = 0
        for (s_key, d_key), end in self._med_frontier.get(medium_name, _EMPTY_DICT).items():
            if end > ready and not _excl(src_ck, s_key) and not _excl(dst_ck, d_key):
                ready = end
        return ready

    # -- tentative placement ------------------------------------------------------

    def _build_comm_plan(
        self, op: Operation, operator: Operator
    ) -> tuple[tuple[tuple[int, tuple], ...], frozenset[str], int]:
        """Freeze everything about ``(op, operator)`` that cannot change.

        Every predecessor is placed before ``op`` becomes ready and is never
        moved, so per in-edge the producer end, the route, the per-hop
        transfer durations and the condition keys are all constants; the
        only live inputs of a placement evaluation are the medium/operator
        frontiers.  The plan also records the read media (for the dirty-set
        invalidation) and the execution duration.  Hop lists depend on no
        placement time, so they come from the cost model's shared table."""
        entries: list[tuple[int, tuple]] = []
        read_media: set[str] = set()
        hop_lists = self._hops
        for edge in self.graph.in_edges(op):
            src = self._placed[edge.src.name]
            if src.operator.name == operator.name:
                entries.append((src.end, ()))
                continue
            key = (edge.dst.name, edge.dst_port, src.operator.name, operator.name)
            hops = hop_lists.get(key)
            if hops is None:
                src_ck = self._cond.get(edge.src.name)
                dst_ck = self._cond.get(edge.dst.name)
                size = edge.size_bytes
                built = []
                for hop, medium in enumerate(self.costs.route(src.operator, operator).media):
                    built.append((edge, medium, medium.name, medium.transfer_ns(size), src_ck, dst_ck, hop))
                hops = hop_lists[key] = tuple(built)
            for entry in hops:
                read_media.add(entry[2])
            entries.append((src.end, hops))
        plan = (tuple(entries), frozenset(read_media), self.costs.duration(op, operator))
        self._comm_plan[(op.name, operator.name)] = plan
        return plan

    def _try_place(self, op: Operation, operator: Operator) -> Placement:
        """Earliest placement of ``op`` on ``operator`` given current state."""
        self.stats.placements_evaluated += 1
        if not self.incremental:
            return self._try_place_naive(op, operator)
        plan = self._comm_plan.get((op.name, operator.name))
        if plan is None:
            plan = self._build_comm_plan(op, operator)
        transfers: list[ScheduledTransfer] = []
        local_medium_ready: dict[str, int] = {}  # reservations within this placement
        data_ready = 0
        med_frontier = self._med_frontier
        for src_end, hops in plan[0]:
            t = src_end
            for edge, medium, medium_name, dur, src_ck, dst_ck, hop in hops:
                ready = local_medium_ready.get(medium_name, 0)
                frontier = med_frontier.get(medium_name)
                if frontier:
                    for pair, end in frontier.items():
                        if end > ready and not _excl(src_ck, pair[0]) and not _excl(dst_ck, pair[1]):
                            ready = end
                if ready > t:
                    t = ready
                hop_end = t + dur
                transfers.append(
                    ScheduledTransfer(edge=edge, medium=medium, start=t, end=hop_end, hop=hop)
                )
                local_medium_ready[medium_name] = hop_end
                t = hop_end
            if t > data_ready:
                data_ready = t
        raw_start = self._earliest_start(op, operator, data_ready)
        start, reconfig = self._setup_for(op, operator, raw_start)
        end = start + plan[2]
        return Placement(
            op=op, operator=operator, start=start, end=end, transfers=transfers, reconfig=reconfig
        )

    def _try_place_naive(self, op: Operation, operator: Operator) -> Placement:
        """The original evaluation: re-derives routes and rescans timelines."""
        transfers: list[ScheduledTransfer] = []
        local_medium_ready: dict[str, int] = {}  # reservations within this placement
        data_ready = 0
        for edge in self.graph.in_edges(op):
            src = self._placed[edge.src.name]
            if src.operator.name == operator.name:
                data_ready = max(data_ready, src.end)
                continue
            route = self.costs.route(src.operator, operator)
            t = src.end
            for hop, medium in enumerate(route.media):
                ready = max(
                    self._medium_ready(edge, medium.name),
                    local_medium_ready.get(medium.name, 0),
                )
                hop_start = max(t, ready)
                hop_end = hop_start + medium.transfer_ns(edge.size_bytes)
                transfers.append(
                    ScheduledTransfer(edge=edge, medium=medium, start=hop_start, end=hop_end, hop=hop)
                )
                local_medium_ready[medium.name] = hop_end
                t = hop_end
            data_ready = max(data_ready, t)
        raw_start = self._earliest_start(op, operator, data_ready)
        start, reconfig = self._setup_for(op, operator, raw_start)
        end = start + self.costs.duration(op, operator)
        return Placement(
            op=op, operator=operator, start=start, end=end, transfers=transfers, reconfig=reconfig
        )

    def _placement_for(self, op: Operation, operator: Operator) -> Placement:
        """Memoizing wrapper around :meth:`_try_place`.

        Cached entries are invalidated by :meth:`_commit` when the committed
        operation touched this candidate's operator, any medium it read, or
        was this operation itself; everything else stays valid because a
        placement is a pure function of those inputs plus the (immutable
        once placed) predecessor placements.
        """
        self.stats.placements_requested += 1
        if not self.incremental:
            return self._try_place(op, operator)
        key = (op.name, operator.name)
        entry = self._placement_cache.get(key)
        if entry is not None:
            self.stats.placement_cache_hits += 1
            return entry[0]
        placement = self._try_place(op, operator)
        self._placement_cache[key] = (placement, self._comm_plan[key][1])
        return placement

    def _earliest_start(self, op: Operation, operator: Operator, data_ready: int) -> int:
        """Earliest start of ``op`` on ``operator`` once data has arrived.

        The base policy is append-only: after every non-exclusive operation
        already committed to the operator.  Subclasses may fill gaps
        (see :class:`repro.aaa.insertion.InsertionScheduler`).
        """
        return max(data_ready, self._operator_ready(op, operator))

    def _setup_for(
        self, op: Operation, operator: Operator, raw_start: int
    ) -> tuple[int, Optional[ScheduledReconfig]]:
        """Hook for subclasses: sequence-dependent setup (reconfiguration).

        Returns the possibly-delayed start and an optional reconfiguration
        interval to commit alongside the operation.  The base heuristic is
        reconfiguration-blind (the paper: "SynDEx's heuristic needs
        additional developments to optimize time reconfiguration").
        """
        return raw_start, None

    def _commit(self, placement: Placement) -> ScheduledOp:
        scheduled = ScheduledOp(
            op=placement.op, operator=placement.operator, start=placement.start, end=placement.end
        )
        self.schedule.add_op(scheduled)
        for t in placement.transfers:
            self.schedule.add_transfer(t)
        if placement.reconfig is not None:
            self.schedule.add_reconfig(placement.reconfig)
        self._placed[placement.op.name] = scheduled
        self.stats.operations_committed += 1
        if self.incremental:
            self._advance_frontiers(placement, scheduled)
            self._invalidate_placements(placement)
        return scheduled

    def _advance_frontiers(self, placement: Placement, scheduled: ScheduledOp) -> None:
        operator_name = placement.operator.name
        front = self._op_frontier.setdefault(operator_name, {})
        ck = self._cond.get(placement.op.name)
        if scheduled.end > front.get(ck, -1):
            front[ck] = scheduled.end
        for t in placement.transfers:
            pair = (self._cond.get(t.edge.src.name), self._cond.get(t.edge.dst.name))
            med = self._med_frontier.setdefault(t.medium.name, {})
            if t.end > med.get(pair, -1):
                med[pair] = t.end
        if placement.reconfig is not None:
            rec = self._rec_frontier.setdefault(operator_name, {})
            value = placement.reconfig.condition_value
            if placement.reconfig.end > rec.get(value, -1):
                rec[value] = placement.reconfig.end

    def _invalidate_placements(self, placement: Placement) -> None:
        """Dirty-set invalidation after a commit."""
        committed = placement.op.name
        dirty_operator = placement.operator.name
        dirty_media = {t.medium.name for t in placement.transfers}
        cache = self._placement_cache
        pressures = self._pressure_cache
        stale = [
            key
            for key, (_, read_media) in cache.items()
            if key[0] == committed
            or key[1] == dirty_operator
            or (dirty_media and not dirty_media.isdisjoint(read_media))
        ]
        for key in stale:
            del cache[key]
            # A pressure is a function of *all* the operation's candidate
            # placements, so losing any one of them voids it.
            pressures.pop(key[0], None)
        pressures.pop(committed, None)

    # -- ranks ---------------------------------------------------------------------

    def _tail_ranks(self) -> dict[str, int]:
        """Remaining critical path *after* each operation (best-case durations)."""
        tail: dict[str, int] = {}
        for op in reversed(self._topo):
            best = 0
            for succ in self.graph.successors(op):
                best = max(best, self.costs.best_duration(succ) + tail[succ.name])
            tail[op.name] = best
        return tail

    # -- driver ----------------------------------------------------------------------

    def _successor_map(self) -> dict[str, list[Operation]]:
        """Data successors plus the implicit conditioning edges.

        A conditioned operation cannot start before its group's selector has
        produced the condition value — and neither can the *producers that
        feed* the conditioned alternatives, because their sends are routed
        by the very same value (the executive's conditional ``send_`` guards
        on it).  Both become implicit selector→X precedences, skipping any X
        that is an ancestor of the selector (cycle guard)."""
        succs: dict[str, list[Operation]] = {
            op.name: list(self.graph.successors(op)) for op in self.graph.operations
        }

        def ancestors_of(op: Operation) -> set[str]:
            seen: set[str] = set()
            stack = [op]
            while stack:
                current = stack.pop()
                for pred in self.graph.predecessors(current):
                    if pred.name not in seen:
                        seen.add(pred.name)
                        stack.append(pred)
            return seen

        for group in self.graph.condition_groups.values():
            selector = group.selector
            blocked = ancestors_of(selector) | {selector.name}
            targets: dict[str, Operation] = {}
            for case_op in group.operations:
                targets.setdefault(case_op.name, case_op)
                for producer in self.graph.predecessors(case_op):
                    targets.setdefault(producer.name, producer)
            existing = {s.name for s in succs[selector.name]}
            for name, op in targets.items():
                if name not in blocked and name not in existing:
                    succs[selector.name].append(op)
        return succs

    def run(self) -> Schedule:
        """Schedule every operation; returns the completed schedule."""
        succs = self._table("successors", self._successor_map)
        pending = {op.name: op for op in self.graph.operations}
        n_preds = {op.name: 0 for op in self.graph.operations}
        for preds in succs.values():
            for succ in preds:
                n_preds[succ.name] += 1
        ready = [op for op in self._topo if n_preds[op.name] == 0]
        while ready:
            op = self._select(ready)
            ready.remove(op)
            del pending[op.name]
            best = self._best_placement(op)
            self._commit(best)
            for succ in succs[op.name]:
                if succ.name not in pending:
                    continue
                n_preds[succ.name] -= 1
                if n_preds[succ.name] == 0:
                    ready.append(succ)
        if pending:
            raise RuntimeError(f"unschedulable operations remain: {sorted(pending)}")
        return self.schedule

    def _candidates(self, op: Operation) -> list[Operator]:
        cached = self._candidates_cache.get(op.name)
        if cached is None:
            cached = self.constraints.candidates(op, self.costs)
            self._candidates_cache[op.name] = cached
        return cached

    def _best_placement(self, op: Operation) -> Placement:
        placements = [self._placement_for(op, p) for p in self._candidates(op)]
        return min(placements, key=lambda pl: (pl.end, pl.operator.name))

    def _select(self, ready: list[Operation]) -> Operation:  # pragma: no cover - abstract
        raise NotImplementedError


class SynDExScheduler(ListSchedulerBase):
    """The AAA schedule-pressure heuristic (SynDEx's adequation core)."""

    def __init__(
        self,
        costs: CostModel,
        constraints: Optional[MappingConstraints] = None,
        incremental: bool = True,
    ):
        super().__init__(costs, constraints, incremental=incremental)
        self._tails = self._table("tail_ranks", self._tail_ranks)

    def _pressure(self, op: Operation) -> int:
        """Schedule pressure: completion of the best placement plus the
        remaining critical path — the op that would stretch the schedule the
        most if delayed.

        Memoized across commit steps: computing it caches every candidate
        placement, and :meth:`_invalidate_placements` voids the pressure the
        moment any of those placements goes stale — so a cached value is
        always exactly what a fresh evaluation would return."""
        if not self.incremental:
            return self._best_placement(op).end + self._tails[op.name]
        pressure = self._pressure_cache.get(op.name)
        if pressure is None:
            pressure = self._best_placement(op).end + self._tails[op.name]
            self._pressure_cache[op.name] = pressure
        else:
            # Keep the accounting honest: the naive reference would have
            # re-evaluated every candidate to answer this, so a pressure hit
            # still counts as that many requested (and memo-served) lookups.
            n = len(self._candidates(op))
            self.stats.placements_requested += n
            self.stats.placement_cache_hits += n
        return pressure

    def _select(self, ready: list[Operation]) -> Operation:
        return max(ready, key=lambda op: (self._pressure(op), op.name))
