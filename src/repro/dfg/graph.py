"""The algorithm graph: operations connected by typed data-flow edges."""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.dfg.conditions import ConditionGroup
from repro.dfg.operations import Operation
from repro.dfg.types import Direction

__all__ = ["Edge", "AlgorithmGraph"]


@dataclass(frozen=True, slots=True)
class Edge:
    """A data dependency: ``src.src_port`` drives ``dst.dst_port``."""

    src: Operation
    src_port: str
    dst: Operation
    dst_port: str

    @property
    def size_bytes(self) -> int:
        """Bytes transferred per iteration over this edge."""
        return self.src.port(self.src_port).size_bytes

    @property
    def size_bits(self) -> int:
        return self.src.port(self.src_port).size_bits

    def __str__(self) -> str:
        return f"{self.src.name}.{self.src_port} -> {self.dst.name}.{self.dst_port}"


class AlgorithmGraph:
    """A data-flow graph of infinitely-repeated operations.

    The graph must be a DAG within one iteration (inter-iteration feedback
    would be modelled with explicit delay operations, which the MC-CDMA
    transmitter does not need).
    """

    def __init__(self, name: str = "algorithm"):
        self.name = name
        self._ops: dict[str, Operation] = {}
        self._edges: list[Edge] = []
        self._groups: dict[str, ConditionGroup] = {}
        self._in: dict[str, list[Edge]] = {}
        self._out: dict[str, list[Edge]] = {}
        #: topological order, sorted on first query and dropped by every
        #: mutation; derived, so never pickled.
        self._order: list[Operation] | None = None

    def __getstate__(self) -> dict:
        # The adjacency indexes and the cached order are derived; keep the
        # pickle payload (and therefore every cached artifact embedding a
        # graph) identical to the index-free representation.
        return {
            "name": self.name,
            "_ops": self._ops,
            "_edges": self._edges,
            "_groups": self._groups,
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._rebuild_adjacency()
        self._order = None

    def _rebuild_adjacency(self) -> None:
        self._in = {}
        self._out = {}
        for e in self._edges:
            self._in.setdefault(e.dst.name, []).append(e)
            self._out.setdefault(e.src.name, []).append(e)

    # -- construction --------------------------------------------------------

    def add(self, op: Operation) -> Operation:
        if op.name in self._ops:
            raise ValueError(f"duplicate operation name {op.name!r}")
        self._ops[op.name] = op
        self._order = None
        return op

    def add_operation(self, name: str, kind: str, **params) -> Operation:
        """Create, register and return a fresh operation."""
        return self.add(Operation(name=name, kind=kind, params=params))

    def connect(self, src: Operation | str, src_port: str, dst: Operation | str, dst_port: str) -> Edge:
        """Add a data-flow edge; validates port existence and compatibility."""
        src_op = self._resolve(src)
        dst_op = self._resolve(dst)
        sp = src_op.port(src_port)
        dp = dst_op.port(dst_port)
        if sp.direction is not Direction.OUT:
            raise ValueError(f"{src_op.name}.{src_port} is not an output port")
        if dp.direction is not Direction.IN:
            raise ValueError(f"{dst_op.name}.{dst_port} is not an input port")
        if not sp.compatible_with(dp):
            raise ValueError(
                f"incompatible edge {src_op.name}.{src_port} ({sp.dtype}[{sp.tokens}]) -> "
                f"{dst_op.name}.{dst_port} ({dp.dtype}[{dp.tokens}])"
            )
        for e in self._in.get(dst_op.name, ()):
            if e.dst_port == dst_port:
                raise ValueError(f"input {dst_op.name}.{dst_port} already driven by {e.src.name}.{e.src_port}")
        edge = Edge(src_op, src_port, dst_op, dst_port)
        self._edges.append(edge)
        self._in.setdefault(dst_op.name, []).append(edge)
        self._out.setdefault(src_op.name, []).append(edge)
        self._order = None
        return edge

    def disconnect(self, edge: Edge) -> None:
        """Remove a data-flow edge (used by graph-surgery utilities)."""
        try:
            self._edges.remove(edge)
        except ValueError:
            raise KeyError(f"edge {edge} not in graph {self.name!r}") from None
        self._in[edge.dst.name].remove(edge)
        self._out[edge.src.name].remove(edge)
        self._order = None

    def condition_group(
        self, name: str, selector: Operation | str, selector_port: str
    ) -> ConditionGroup:
        """Declare a condition group driven by ``selector.selector_port``."""
        if name in self._groups:
            raise ValueError(f"duplicate condition group {name!r}")
        sel = self._resolve(selector)
        group = ConditionGroup(name=name, selector=sel, selector_port=selector_port)
        self._groups[name] = group
        return group

    def _resolve(self, op: Operation | str) -> Operation:
        if isinstance(op, Operation):
            # Resolve to the graph's own instance: cached/pickled artifacts
            # (schedules crossing a worker pipe or the disk cache) carry equal
            # copies, and edge scans below compare by identity.
            resident = self._ops.get(op.name)
            if resident != op:
                raise KeyError(f"operation {op.name!r} is not part of graph {self.name!r}")
            return resident
        try:
            return self._ops[op]
        except KeyError:
            raise KeyError(f"graph {self.name!r} has no operation {op!r}") from None

    # -- queries ---------------------------------------------------------------

    @property
    def operations(self) -> list[Operation]:
        return list(self._ops.values())

    @property
    def edges(self) -> list[Edge]:
        return list(self._edges)

    @property
    def condition_groups(self) -> dict[str, ConditionGroup]:
        return dict(self._groups)

    def operation(self, name: str) -> Operation:
        return self._resolve(name)

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def __len__(self) -> int:
        return len(self._ops)

    def in_edges(self, op: Operation | str) -> list[Edge]:
        # Name-keyed adjacency: O(fan-in) instead of an O(E) identity scan,
        # and indifferent to whether the caller holds a pickled copy.
        target = self._resolve(op)
        return list(self._in.get(target.name, ()))

    def out_edges(self, op: Operation | str) -> list[Edge]:
        source = self._resolve(op)
        return list(self._out.get(source.name, ()))

    def predecessors(self, op: Operation | str) -> list[Operation]:
        seen: dict[str, Operation] = {}
        for e in self.in_edges(op):
            seen.setdefault(e.src.name, e.src)
        return list(seen.values())

    def successors(self, op: Operation | str) -> list[Operation]:
        seen: dict[str, Operation] = {}
        for e in self.out_edges(op):
            seen.setdefault(e.dst.name, e.dst)
        return list(seen.values())

    def sources(self) -> list[Operation]:
        return [op for op in self._ops.values() if not self.in_edges(op)]

    def sinks(self) -> list[Operation]:
        return [op for op in self._ops.values() if not self.out_edges(op)]

    # -- structure ---------------------------------------------------------------

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
        except ValueError:
            return False
        return True

    def topological_order(self) -> list[Operation]:
        """Operations in dependency order (stable across runs).

        Kahn's algorithm over a heap: of the operations whose inputs are all
        ordered, the smallest name goes next, so the order depends only on
        the graph's contents.  Sorted once per graph: later queries copy the
        cached order until the next mutation drops it.
        """
        if self._order is None:
            # Every edge, parallel ones included, holds its target back once.
            waiting = {name: len(self._in.get(name, ())) for name in self._ops}
            ready = [name for name, count in waiting.items() if count == 0]
            heapq.heapify(ready)
            order = []
            while ready:
                name = heapq.heappop(ready)
                order.append(self._ops[name])
                for e in self._out.get(name, ()):
                    waiting[e.dst.name] -= 1
                    if waiting[e.dst.name] == 0:
                        heapq.heappush(ready, e.dst.name)
            if len(order) < len(self._ops):
                raise ValueError(f"graph {self.name!r} contains a dependency cycle")
            self._order = order
        return list(self._order)

    def exclusive(self, a: Operation, b: Operation) -> bool:
        """True if ``a`` and ``b`` never execute in the same iteration.

        O(1): two operations are exclusive exactly when both carry a
        condition from the same (registered) group with different case
        values — the per-group scan the schedulers used to pay on every
        timeline element now reduces to two attribute reads.
        """
        ca, cb = a.condition, b.condition
        return (
            ca is not None
            and cb is not None
            and ca.group == cb.group
            and ca.value != cb.value
            and ca.group in self._groups
        )

    def critical_path_length(self, duration_of) -> int:
        """Longest path with node weights ``duration_of(op)`` (ignores comms)."""
        longest: dict[str, int] = {}
        for op in self.topological_order():
            base = max((longest[p.name] for p in self.predecessors(op)), default=0)
            longest[op.name] = base + duration_of(op)
        return max(longest.values(), default=0)

    def summary(self) -> str:
        lines = [f"AlgorithmGraph {self.name!r}: {len(self._ops)} operations, {len(self._edges)} edges"]
        for op in self.topological_order():
            cond = f"  [if {op.condition}]" if op.condition else ""
            lines.append(f"  {op.name} ({op.kind}){cond}")
        for g in self._groups.values():
            lines.append(f"  group {g.name}: cases {sorted(map(repr, g.cases))}")
        return "\n".join(lines)
