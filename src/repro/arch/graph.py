"""The architecture graph: operators and media with connection edges.

The graph is bipartite — operators connect to media, never directly to each
other.  A :class:`Route` is the sequence of media a transfer crosses between
two operators; the adequation cost model charges each hop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.arch.media import Medium
from repro.arch.operator import Operator

__all__ = ["ArchitectureError", "Route", "ArchitectureGraph"]


class ArchitectureError(ValueError):
    """Raised for malformed architectures or impossible routes."""


@dataclass(frozen=True, slots=True)
class Route:
    """A path between two operators through one or more media."""

    src: Operator
    dst: Operator
    media: tuple[Medium, ...]

    @property
    def is_local(self) -> bool:
        """True when src and dst are the same operator (no transfer needed)."""
        return not self.media

    def transfer_ns(self, nbytes: int) -> int:
        """End-to-end time for ``nbytes``, store-and-forward across hops."""
        return sum(m.transfer_ns(nbytes) for m in self.media)

    def __str__(self) -> str:
        if self.is_local:
            return f"{self.src.name} (local)"
        hops = " -> ".join(m.name for m in self.media)
        return f"{self.src.name} -[{hops}]-> {self.dst.name}"


class ArchitectureGraph:
    """Operators + media + connections, with shortest-route queries."""

    def __init__(self, name: str = "architecture"):
        self.name = name
        self._operators: dict[str, Operator] = {}
        self._media: dict[str, Medium] = {}
        self._links: set[tuple[str, str]] = set()  # (operator, medium)
        #: (src, dst) operator names -> shortest route, filled on first query
        #: and dropped by every mutation; derived, so never pickled.
        self._routes: dict[tuple[str, str], Route] = {}

    # -- construction ------------------------------------------------------------

    def add_operator(self, op: Operator) -> Operator:
        if op.name in self._operators or op.name in self._media:
            raise ArchitectureError(f"duplicate vertex name {op.name!r}")
        self._operators[op.name] = op
        self._routes.clear()
        return op

    def add_medium(self, medium: Medium) -> Medium:
        if medium.name in self._media or medium.name in self._operators:
            raise ArchitectureError(f"duplicate vertex name {medium.name!r}")
        self._media[medium.name] = medium
        self._routes.clear()
        return medium

    def connect(self, operator: Operator | str, medium: Medium | str) -> None:
        """Attach an operator to a medium."""
        op = self.operator(operator if isinstance(operator, str) else operator.name)
        med = self.medium(medium if isinstance(medium, str) else medium.name)
        self._links.add((op.name, med.name))
        self._routes.clear()

    # -- queries --------------------------------------------------------------------

    def operator(self, name: str) -> Operator:
        try:
            return self._operators[name]
        except KeyError:
            raise ArchitectureError(f"no operator {name!r} in architecture {self.name!r}") from None

    def medium(self, name: str) -> Medium:
        try:
            return self._media[name]
        except KeyError:
            raise ArchitectureError(f"no medium {name!r} in architecture {self.name!r}") from None

    @property
    def operators(self) -> list[Operator]:
        return list(self._operators.values())

    @property
    def media(self) -> list[Medium]:
        return list(self._media.values())

    def operators_on(self, medium: Medium | str) -> list[Operator]:
        med_name = medium if isinstance(medium, str) else medium.name
        self.medium(med_name)
        return [self._operators[o] for o, m in sorted(self._links) if m == med_name]

    def media_of(self, operator: Operator | str) -> list[Medium]:
        op_name = operator if isinstance(operator, str) else operator.name
        self.operator(op_name)
        return [self._media[m] for o, m in sorted(self._links) if o == op_name]

    def device_neutral(self) -> "ArchitectureGraph":
        """A copy with every operator's ``device`` field blanked.

        The scheduling stages (adequation, refinement, VHDL generation) are
        cached under keys that deliberately exclude operator devices — see
        :func:`repro.flows.pipeline.fingerprint_architecture` — so design
        points differing only in device share those artifacts.  The shared
        artifact must then not *embed* a device name either, or its bytes
        would depend on which design point happened to compute it first.
        """
        import copy
        import dataclasses

        neutral = copy.deepcopy(self)
        neutral._operators = {
            name: dataclasses.replace(op, device="")
            for name, op in neutral._operators.items()
        }
        return neutral

    def __getstate__(self) -> dict:
        # Pickle ``_links`` in sorted order: set iteration depends on the
        # per-process string hash seed, and cached artifacts must serialize
        # to identical bytes no matter which worker produced them.  The
        # route table is left out: it depends on the queries a run made,
        # and a copy (``device_neutral``) must not inherit routes through
        # the original's operators.
        state = self.__dict__.copy()
        del state["_routes"]
        state["_links"] = sorted(self._links)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._links = set(state["_links"])
        self._routes = {}

    def processors(self) -> list[Operator]:
        return [o for o in self._operators.values() if o.is_processor]

    def dynamic_operators(self) -> list[Operator]:
        return [o for o in self._operators.values() if o.is_reconfigurable]

    def operators_of_device(self, device: str) -> list[Operator]:
        return [o for o in self._operators.values() if o.device == device]

    # -- routing ---------------------------------------------------------------------

    def _parents(self, src: str) -> dict[str, str | None]:
        """Breadth-first search from ``src``: every reachable vertex's parent.

        Neighbours are expanded in name order, so the parent chain of any
        vertex spells, among its fewest-hop paths from ``src``, the one whose
        vertex-name sequence sorts first.
        """
        neighbours: dict[str, list[str]] = {}
        for o, m in sorted(self._links):
            neighbours.setdefault(o, []).append(m)
            neighbours.setdefault(m, []).append(o)
        parents: dict[str, str | None] = {src: None}
        queue = deque([src])
        while queue:
            vertex = queue.popleft()
            for n in neighbours.get(vertex, ()):
                if n not in parents:
                    parents[n] = vertex
                    queue.append(n)
        return parents

    def route(self, src: Operator | str, dst: Operator | str) -> Route:
        """The shortest route (fewest media hops) between two operators.

        Ties go to the path whose vertex-name sequence (operators and media
        alike, from ``src`` on) sorts first, so the answer depends only on
        the graph's contents.  Each pair is searched once per graph: later
        queries answer from the route table until the next mutation clears it.
        """
        key = (src if isinstance(src, str) else src.name, dst if isinstance(dst, str) else dst.name)
        route = self._routes.get(key)
        if route is None:
            route = self._routes[key] = self._shortest_route(*key)
        return route

    def _shortest_route(self, src: str, dst: str) -> Route:
        src_op = self.operator(src)
        dst_op = self.operator(dst)
        if src == dst:
            return Route(src_op, dst_op, ())
        parents = self._parents(src)
        if dst not in parents:
            raise ArchitectureError(f"no route between {src!r} and {dst!r}")
        hops = []
        vertex = parents[dst]
        while vertex is not None:
            if vertex in self._media:
                hops.append(self._media[vertex])
            vertex = parents[vertex]
        return Route(src_op, dst_op, tuple(reversed(hops)))

    def validate(self) -> None:
        """Check the platform is usable: non-empty and fully connected."""
        problems = []
        if not self._operators:
            problems.append("architecture has no operators")
        for m in self._media.values():
            attached = self.operators_on(m)
            if len(attached) < 2:
                problems.append(f"medium {m.name!r} connects fewer than two operators")
        ops = list(self._operators)
        if len(ops) > 1:
            reached = self._parents(ops[0])
            for other in ops[1:]:
                if other not in reached:
                    problems.append(f"operator {other!r} unreachable from {ops[0]!r}")
        if problems:
            raise ArchitectureError("; ".join(problems))

    def summary(self) -> str:
        lines = [f"ArchitectureGraph {self.name!r}"]
        for o in self._operators.values():
            media = ", ".join(m.name for m in self.media_of(o)) or "unconnected"
            lines.append(f"  {o} on [{media}]")
        for m in self._media.values():
            lines.append(f"  {m}")
        return "\n".join(lines)
