"""State encoding and move generation for the co-optimization search.

A :class:`SearchState` fixes the three decision layers the paper treats as
inputs:

- **partitioning** — ``assign[i]`` maps the i-th movable operation (the
  graph's conditioned operations, in sorted name order) to a dynamic
  region index;
- **region count** — ``len(placements)`` regions are carved;
- **floorplanning** — ``placements[j] = (col0, width)`` pins region ``j``
  to a full-height CLB-column span of the device.

States are canonical (region indices renumbered by first appearance in the
assignment) and hashable, so the objective layer can memoize repeat
evaluations through the content-addressed artifact cache.  Moves keep the
*per-region* geometry hard-legal (width ≥ the 4-slice minimum, multiple of
4 slices, inside the device) but allow region spans to overlap and regions
to overflow their capacity — those show up as graded penalties in the
objective, which gives the annealer a smooth landscape instead of a wall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.dfg.graph import AlgorithmGraph
from repro.dfg.library import OperationLibrary
from repro.fabric.device import VirtexIIDevice, XC2V2000
from repro.fabric.floorplan import MIN_WIDTH_CLB, WIDTH_STEP_CLB, Floorplan, ModulePlacement
from repro.fabric.resources import ResourceVector
from repro.fabric.synthesis import Synthesizer

__all__ = ["SearchState", "SearchSpace", "MOVE_KINDS"]

#: The move vocabulary, spanning all three decision layers.
MOVE_KINDS = ("reassign", "split", "merge", "shift", "resize", "swap")


@dataclass(frozen=True)
class SearchState:
    """One candidate point of the joint space (canonical, hashable)."""

    #: Per movable operation (sorted name order): region index.
    assign: tuple[int, ...]
    #: Per region index: (col0, width) in CLB columns, full height.
    placements: tuple[tuple[int, int], ...]

    @property
    def n_regions(self) -> int:
        return len(self.placements)

    def key(self) -> str:
        """Stable string encoding — the cache/digest identity of the state."""
        assign = ",".join(map(str, self.assign))
        spans = ";".join(f"{c}+{w}" for c, w in self.placements)
        return f"k{self.n_regions}|a[{assign}]|p[{spans}]"

    def region_ops(self) -> list[list[int]]:
        """Movable-op indices per region."""
        members: list[list[int]] = [[] for _ in range(self.n_regions)]
        for op_idx, region in enumerate(self.assign):
            members[region].append(op_idx)
        return members

    def __str__(self) -> str:
        return self.key()


class SearchSpace:
    """Move generator and geometry bookkeeping over one (graph, device) pair.

    ``margin`` oversizes each region's resource requirement the same way the
    Modular-Design back-end does (reconfigurable regions target ≈50 %
    utilization at the default 2.0 there); the search default is looser so
    narrow-but-feasible spans stay reachable and the capacity/width
    trade-off is part of the landscape.
    """

    def __init__(
        self,
        graph: AlgorithmGraph,
        library: OperationLibrary,
        device: VirtexIIDevice = XC2V2000,
        max_regions: Optional[int] = None,
        margin: float = 1.25,
    ):
        if margin < 1.0:
            raise ValueError("margin must be >= 1.0")
        self.graph = graph
        self.library = library
        self.device = device
        self.margin = margin
        self.movable_ops: tuple[str, ...] = tuple(
            sorted(op.name for op in graph.operations if op.is_conditioned)
        )
        if not self.movable_ops:
            raise ValueError(
                f"graph {graph.name!r} has no conditioned operations; nothing to partition"
            )
        self.max_regions = max_regions if max_regions is not None else min(len(self.movable_ops), 4)
        if self.max_regions < 1:
            raise ValueError("max_regions must be >= 1")

        synthesizer = Synthesizer(library)
        #: movable-op member tuple -> worst-case need / boundary bits
        self._need_memo: dict[tuple[int, ...], ResourceVector] = {}
        self._bits_memo: dict[tuple[int, ...], tuple[int, int]] = {}
        self._op_need: dict[str, ResourceVector] = {}
        self._op_bits: dict[str, tuple[int, int]] = {}
        for name in self.movable_ops:
            op = graph.operation(name)
            module, _ = synthesizer.synthesize_module(
                f"search_{name}", [op], ports=[], reconfigurable=True, region="_probe"
            )
            self._op_need[name] = module.resources.scaled(margin)
            # Boundary crossings are *wires*, so count port widths (one
            # token's bits), not per-iteration data volume.
            bits_in = sum(e.dst.port(e.dst_port).dtype.bits for e in graph.in_edges(op))
            bits_out = sum(e.src.port(e.src_port).dtype.bits for e in graph.out_edges(op))
            self._op_bits[name] = (bits_in, bits_out)

    # -- derived per-state quantities --------------------------------------------

    def region_need(self, members: tuple[int, ...]) -> ResourceVector:
        """Worst-case variant requirement (margin applied) of a region
        hosting the movable ops ``members`` (its entry of
        :meth:`SearchState.region_ops`, as a tuple); memoized per tuple."""
        worst = self._need_memo.get(members)
        if worst is None:
            worst = ResourceVector()
            for op_idx in members:
                need = self._op_need[self.movable_ops[op_idx]]
                worst = ResourceVector(
                    **{k: max(getattr(worst, k), getattr(need, k)) for k in need.as_dict()}
                )
            self._need_memo[members] = worst
        return worst

    def region_boundary_bits(self, members: tuple[int, ...]) -> tuple[int, int]:
        """Worst-case (bits_in, bits_out) crossing the boundary of a region
        hosting the movable ops ``members``; memoized per tuple."""
        bits = self._bits_memo.get(members)
        if bits is None:
            bits_in = bits_out = 0
            for op_idx in members:
                i, o = self._op_bits[self.movable_ops[op_idx]]
                bits_in = max(bits_in, i)
                bits_out = max(bits_out, o)
            bits = self._bits_memo[members] = (bits_in, bits_out)
        return bits

    def floorplan_of(self, state: SearchState) -> Floorplan:
        """The state's floorplan with placements injected verbatim.

        Deliberately bypasses :meth:`Floorplan.place` — candidate states may
        overlap or be degenerate; :meth:`Floorplan.violations` and the
        objective's penalties judge them.
        """
        plan = Floorplan(self.device)
        for region, (col0, width) in enumerate(state.placements):
            name = self.region_name(region)
            plan.placements[name] = ModulePlacement(name, col0, width)
        return plan

    @staticmethod
    def region_name(region: int) -> str:
        """Region index -> board/operator region name (``D1``-based)."""
        return f"D{region + 1}"

    # -- state construction ------------------------------------------------------

    def canonical(self, assign: Sequence[int], placements: Sequence[tuple[int, int]]) -> SearchState:
        """Renumber regions by first appearance; drop unused placements."""
        remap: dict[int, int] = {}
        for region in assign:
            if region not in remap:
                remap[region] = len(remap)
        return SearchState(
            assign=tuple(remap[r] for r in assign),
            placements=tuple(tuple(placements[old]) for old in sorted(remap, key=remap.get)),
        )

    def initial_state(self, n_regions: Optional[int] = None) -> SearchState:
        """The deterministic fixed-sweep point for ``n_regions`` regions.

        Partitioning follows the paper's idiom — alternatives of the same
        condition group share a region, groups round-robin over regions —
        and each span packs against the right device edge at the narrowest
        width whose capacity fits the region's worst-case variant, exactly
        the :class:`~repro.fabric.floorplan.Floorplanner` layout.
        """
        k = n_regions if n_regions is not None else min(
            len(self.graph.condition_groups), self.max_regions
        )
        if not 1 <= k <= self.max_regions:
            raise ValueError(f"n_regions must be in 1..{self.max_regions}, got {k}")
        groups = sorted(self.graph.condition_groups)
        group_region = {g: i % k for i, g in enumerate(groups)}
        assign = tuple(
            group_region[self.graph.operation(name).condition.group] for name in self.movable_ops
        )
        state = self.canonical(assign, [(0, MIN_WIDTH_CLB)] * k)
        placements: list[tuple[int, int]] = [None] * state.n_regions
        next_end = self.device.clb_cols
        for region, members in enumerate(state.region_ops()):
            col0, width = self._pack_fit(self.region_need(tuple(members)), next_end)
            placements[region] = (col0, width)
            next_end = col0
        return SearchState(assign=state.assign, placements=tuple(placements))

    def _pack_fit(self, need: ResourceVector, right_edge: int) -> tuple[int, int]:
        """Narrowest span ending at/left-of ``right_edge`` fitting ``need``;
        falls back to the widest span that still fits the device."""
        width = MIN_WIDTH_CLB
        while width <= right_edge:
            for col0 in range(right_edge - width, -1, -1):
                if need.fits_in(self.device.column_span_capacity(col0, width)):
                    return col0, width
            width += WIDTH_STEP_CLB
        # Nothing fits: park a minimum-width span at the edge and let the
        # capacity penalty price the shortfall.
        col0 = max(0, right_edge - MIN_WIDTH_CLB)
        return col0, MIN_WIDTH_CLB

    def random_state(self, rng: np.random.Generator) -> SearchState:
        """A uniformly-seeded state: random partition, random legal spans."""
        k = int(rng.integers(1, self.max_regions + 1))
        assign = [int(rng.integers(0, k)) for _ in self.movable_ops]
        # Every region index must be used, else canonicalization shrinks k.
        for region in range(k):
            if region not in assign:
                assign[int(rng.integers(0, len(assign)))] = region
        placements = [self._random_span(rng) for _ in range(k)]
        return self.canonical(assign, placements)

    def _random_span(self, rng: np.random.Generator) -> tuple[int, int]:
        max_steps = self.device.clb_cols // WIDTH_STEP_CLB
        width = WIDTH_STEP_CLB * int(rng.integers(1, min(max_steps, 6) + 1))
        width = max(width, MIN_WIDTH_CLB)
        col0 = int(rng.integers(0, self.device.clb_cols - width + 1))
        return col0, width

    # -- moves -------------------------------------------------------------------

    def neighbor(self, state: SearchState, rng: np.random.Generator) -> SearchState:
        """One random move; always returns a state different from ``state``
        (falls back through move kinds when the drawn one is inapplicable)."""
        order = list(rng.permutation(len(MOVE_KINDS)))
        for idx in order:
            moved = self._apply_move(MOVE_KINDS[idx], state, rng)
            if moved is not None and moved != state:
                return moved
        return state  # fully stuck (single op, single span device) — caller's budget handles it

    def _apply_move(
        self, kind: str, state: SearchState, rng: np.random.Generator
    ) -> Optional[SearchState]:
        if kind == "reassign":
            return self._move_reassign(state, rng)
        if kind == "split":
            return self._move_split(state, rng)
        if kind == "merge":
            return self._move_merge(state, rng)
        if kind == "shift":
            return self._move_shift(state, rng)
        if kind == "resize":
            return self._move_resize(state, rng)
        if kind == "swap":
            return self._move_swap(state, rng)
        raise ValueError(f"unknown move kind {kind!r}")

    def _move_reassign(self, state: SearchState, rng) -> Optional[SearchState]:
        """Partition layer: move one operation to another existing region."""
        if state.n_regions < 2:
            return None
        members = state.region_ops()
        candidates = [i for i, r in enumerate(state.assign) if len(members[r]) > 1]
        if not candidates:
            return None
        op_idx = candidates[int(rng.integers(0, len(candidates)))]
        current = state.assign[op_idx]
        others = [r for r in range(state.n_regions) if r != current]
        target = others[int(rng.integers(0, len(others)))]
        assign = list(state.assign)
        assign[op_idx] = target
        return self.canonical(assign, state.placements)

    def _move_split(self, state: SearchState, rng) -> Optional[SearchState]:
        """Partition layer: carve a new region for one operation."""
        if state.n_regions >= self.max_regions:
            return None
        members = state.region_ops()
        crowded = [i for i, r in enumerate(state.assign) if len(members[r]) > 1]
        if not crowded:
            return None
        op_idx = crowded[int(rng.integers(0, len(crowded)))]
        assign = list(state.assign)
        assign[op_idx] = state.n_regions
        placements = list(state.placements) + [self._free_span(state, rng)]
        return self.canonical(assign, placements)

    def _free_span(self, state: SearchState, rng) -> tuple[int, int]:
        """A minimum-width span avoiding existing placements when possible."""
        taken = set()
        for col0, width in state.placements:
            taken.update(range(col0, col0 + width))
        starts = [
            c for c in range(0, self.device.clb_cols - MIN_WIDTH_CLB + 1)
            if not taken.intersection(range(c, c + MIN_WIDTH_CLB))
        ]
        if starts:
            return starts[int(rng.integers(0, len(starts)))], MIN_WIDTH_CLB
        return self._random_span(rng)

    def _move_merge(self, state: SearchState, rng) -> Optional[SearchState]:
        """Partition layer: dissolve one region into another."""
        if state.n_regions < 2:
            return None
        victim = int(rng.integers(0, state.n_regions))
        others = [r for r in range(state.n_regions) if r != victim]
        target = others[int(rng.integers(0, len(others)))]
        assign = [target if r == victim else r for r in state.assign]
        return self.canonical(assign, state.placements)

    def _move_shift(self, state: SearchState, rng) -> Optional[SearchState]:
        """Floorplan layer: slide one span by one width step."""
        region = int(rng.integers(0, state.n_regions))
        col0, width = state.placements[region]
        delta = WIDTH_STEP_CLB if rng.integers(0, 2) else -WIDTH_STEP_CLB
        new_col0 = col0 + delta
        if new_col0 < 0 or new_col0 + width > self.device.clb_cols:
            new_col0 = col0 - delta
        if new_col0 < 0 or new_col0 + width > self.device.clb_cols or new_col0 == col0:
            return None
        placements = list(state.placements)
        placements[region] = (new_col0, width)
        return SearchState(assign=state.assign, placements=tuple(placements))

    def _move_resize(self, state: SearchState, rng) -> Optional[SearchState]:
        """Floorplan layer: grow or shrink one span by one width step."""
        region = int(rng.integers(0, state.n_regions))
        col0, width = state.placements[region]
        grow = bool(rng.integers(0, 2))
        new_width = width + (WIDTH_STEP_CLB if grow else -WIDTH_STEP_CLB)
        if new_width < MIN_WIDTH_CLB or col0 + new_width > self.device.clb_cols:
            new_width = width + (-WIDTH_STEP_CLB if grow else WIDTH_STEP_CLB)
        if new_width < MIN_WIDTH_CLB or col0 + new_width > self.device.clb_cols:
            return None
        placements = list(state.placements)
        placements[region] = (col0, new_width)
        return SearchState(assign=state.assign, placements=tuple(placements))

    def _move_swap(self, state: SearchState, rng) -> Optional[SearchState]:
        """Floorplan layer: exchange the spans of two regions."""
        if state.n_regions < 2:
            return None
        a = int(rng.integers(0, state.n_regions))
        b = int(rng.integers(0, state.n_regions - 1))
        if b >= a:
            b += 1
        placements = list(state.placements)
        placements[a], placements[b] = placements[b], placements[a]
        if tuple(placements) == state.placements:
            return None
        return SearchState(assign=state.assign, placements=tuple(placements))

    # -- identity ---------------------------------------------------------------

    def describe(self, state: SearchState) -> str:
        """Human-readable rendering of a state."""
        lines = [f"{state.n_regions} region(s) on {self.device.name}"]
        members = state.region_ops()
        for region, (col0, width) in enumerate(state.placements):
            ops = ", ".join(self.movable_ops[i] for i in members[region])
            lines.append(
                f"  {self.region_name(region)}: columns [{col0}, {col0 + width}) <- {ops}"
            )
        return "\n".join(lines)
