"""Modular floorplanning.

Implements the placement rules the paper inherits from the Xilinx Modular
Design flow: "the height of the module is always the full height of the
device and its width ranges a minimal of four slices", bus macros straddle
the dividing column, and every module is placed-and-routed separately inside
its column range.

In Virtex-II a CLB column is two slice-columns wide, so the *four slices
minimum, multiple of four slices* rule translates to **at least 2 CLB
columns, in steps of 2 CLB columns**.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fabric.busmacro import BusMacro, BusMacroError, plan_bus_macros
from repro.fabric.device import VirtexIIDevice
from repro.fabric.netlist import Netlist
from repro.fabric.resources import ResourceVector

__all__ = ["FloorplanError", "ModulePlacement", "Floorplan", "Floorplanner", "MIN_WIDTH_CLB", "WIDTH_STEP_CLB"]

#: Four slices minimum width == 2 CLB columns; grown in 2-column steps.
MIN_WIDTH_CLB = 2
WIDTH_STEP_CLB = 2


class FloorplanError(ValueError):
    """Raised when a floorplan violates the modular-design rules."""


@dataclass(frozen=True, slots=True)
class ModulePlacement:
    """A full-height placement of a reconfigurable region."""

    region: str
    col0: int
    width: int

    @property
    def col_end(self) -> int:
        return self.col0 + self.width

    def overlaps(self, other: "ModulePlacement") -> bool:
        return self.col0 < other.col_end and other.col0 < self.col_end

    def contains_column(self, col: int) -> bool:
        return self.col0 <= col < self.col_end


@dataclass
class Floorplan:
    """Placements of every reconfigurable region plus derived geometry."""

    device: VirtexIIDevice
    placements: dict[str, ModulePlacement] = field(default_factory=dict)
    bus_macros: dict[str, list[BusMacro]] = field(default_factory=dict)

    def place(self, region: str, col0: int, width: int) -> ModulePlacement:
        """Place a region; enforces the modular-design rules immediately."""
        if region in self.placements:
            raise FloorplanError(f"region {region!r} already placed")
        if width <= 0:
            # Distinct from the minimum-width rule: a zero- or negative-width
            # span is degenerate geometry (it would "overlap" nothing and
            # occupy no frames), so reject it by name everywhere.
            raise FloorplanError(f"region {region!r}: zero-width span [{col0}, {col0 + width})")
        if width < MIN_WIDTH_CLB:
            raise FloorplanError(
                f"region {region!r}: width {width} CLB columns is below the 4-slice minimum "
                f"({MIN_WIDTH_CLB} columns)"
            )
        if width % WIDTH_STEP_CLB:
            raise FloorplanError(
                f"region {region!r}: width must be a multiple of 4 slices "
                f"({WIDTH_STEP_CLB} CLB columns), got {width}"
            )
        if col0 < 0 or col0 + width > self.device.clb_cols:
            raise FloorplanError(
                f"region {region!r}: span [{col0}, {col0 + width}) outside {self.device.name}"
            )
        candidate = ModulePlacement(region, col0, width)
        for other in self.placements.values():
            if candidate.overlaps(other):
                raise FloorplanError(f"region {region!r} overlaps region {other.region!r}")
        self.placements[region] = candidate
        return candidate

    # -- validation ---------------------------------------------------------

    def violations(self) -> list[str]:
        """Every modular-design rule the current placements break.

        ``place()`` enforces these incrementally; this re-checks a whole
        floorplan (including placements injected directly into the dict, as
        the co-optimizer's move generator does) with the same verdicts:
        zero-width spans are rejected, column ranges that merely *touch* at
        a shared boundary are legal, overlapping ranges are not.  Also
        catches bus-macro row collisions when two regions stack macros on
        the same dividing column.
        """
        problems: list[str] = []
        for p in self.placements.values():
            if p.width <= 0:
                problems.append(f"region {p.region!r}: zero-width span [{p.col0}, {p.col_end})")
                continue
            if p.width < MIN_WIDTH_CLB:
                problems.append(
                    f"region {p.region!r}: width {p.width} CLB columns is below the "
                    f"4-slice minimum ({MIN_WIDTH_CLB} columns)"
                )
            if p.width % WIDTH_STEP_CLB:
                problems.append(
                    f"region {p.region!r}: width must be a multiple of 4 slices "
                    f"({WIDTH_STEP_CLB} CLB columns), got {p.width}"
                )
            if p.col0 < 0 or p.col_end > self.device.clb_cols:
                problems.append(
                    f"region {p.region!r}: span [{p.col0}, {p.col_end}) outside {self.device.name}"
                )
        ordered = sorted(self.placements.values(), key=lambda x: (x.col0, x.region))
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                if a.width > 0 and b.width > 0 and a.overlaps(b):
                    problems.append(f"region {a.region!r} overlaps region {b.region!r}")
        occupied: dict[tuple[int, int], str] = {}
        for region in sorted(self.bus_macros):
            for macro in self.bus_macros[region]:
                slot = (macro.column, macro.row)
                owner = occupied.get(slot)
                if owner is not None and owner != region:
                    problems.append(
                        f"bus-macro row collision on column {macro.column} row {macro.row}: "
                        f"regions {owner!r} and {region!r}"
                    )
                else:
                    occupied[slot] = region
        return problems

    def validate(self) -> None:
        """Raise :class:`FloorplanError` listing every violation, if any."""
        problems = self.violations()
        if problems:
            raise FloorplanError("; ".join(problems))

    # -- geometry -----------------------------------------------------------

    def static_columns(self) -> list[int]:
        """CLB columns belonging to the static part."""
        dynamic = set()
        for p in self.placements.values():
            dynamic.update(range(p.col0, p.col_end))
        return [c for c in range(self.device.clb_cols) if c not in dynamic]

    def static_capacity(self) -> ResourceVector:
        """Resources available to the static part (excludes bus-macro TBUFs).

        The sum of ``column_span_capacity(col, 1)`` over the static columns,
        built in one vector: each static column brings its CLBs, and BRAM
        column ``c`` belongs to the CLB column ``c - 1`` it sits right of.
        """
        device = self.device
        static = self.static_columns()
        owned = set(static)
        brams = sum(device.brams_per_col for c in device.bram_cols if c - 1 in owned)
        clb, n = device.column_span_capacity(0, 1), len(static)
        total = ResourceVector(
            slices=clb.slices * n, luts=clb.luts * n, ffs=clb.ffs * n, tbufs=clb.tbufs * n,
            brams=brams, mults=brams,
        )
        macro_tbufs = sum(m.tbufs // 2 for macros in self.bus_macros.values() for m in macros)
        return total - ResourceVector(tbufs=min(macro_tbufs, total.tbufs))

    def region_capacity(self, region: str) -> ResourceVector:
        p = self.placement(region)
        cap = self.device.column_span_capacity(p.col0, p.width)
        macro_tbufs = sum(m.tbufs // 2 for m in self.bus_macros.get(region, ()))
        return cap - ResourceVector(tbufs=min(macro_tbufs, cap.tbufs))

    def placement(self, region: str) -> ModulePlacement:
        try:
            return self.placements[region]
        except KeyError:
            raise KeyError(f"region {region!r} not placed") from None

    def boundary_column(self, region: str) -> int:
        """The dividing column where the region meets the static part.

        The macros straddle the left edge when the region touches the right
        device edge, and the right edge otherwise.
        """
        p = self.placement(region)
        if p.col0 > 0:
            return p.col0
        if p.col_end < self.device.clb_cols:
            return p.col_end
        raise FloorplanError(f"region {region!r} covers the whole device; no static boundary")

    def area_fraction(self, region: str) -> float:
        return self.device.area_fraction(self.placement(region).width)

    def partial_bitstream_bytes(self, region: str) -> int:
        p = self.placement(region)
        return self.device.partial_bitstream_bytes(p.col0, p.width)

    def summary(self) -> str:
        lines = [f"Floorplan on {self.device}"]
        for p in sorted(self.placements.values(), key=lambda x: x.col0):
            pct = 100.0 * self.area_fraction(p.region)
            nmac = len(self.bus_macros.get(p.region, ()))
            lines.append(
                f"  {p.region}: columns [{p.col0}, {p.col_end}) full height — "
                f"{pct:.1f}% of device, {nmac} bus macros, "
                f"{self.partial_bitstream_bytes(p.region)} B partial bitstream"
            )
        lines.append(f"  static part: {len(self.static_columns())} columns")
        return "\n".join(lines)


class Floorplanner:
    """Automatic floorplanning of reconfigurable regions.

    Chooses, per region, the narrowest legal column span whose capacity fits
    the worst-case variant (plus a safety margin for routing), packing
    regions against the right edge of the device — the paper's Fig. 4 layout
    (static part left, dynamic operator right).
    """

    def __init__(self, device: VirtexIIDevice, margin: float = 1.10):
        if margin < 1.0:
            raise ValueError("margin must be >= 1.0")
        self.device = device
        self.margin = margin

    def plan(self, netlist: Netlist) -> Floorplan:
        plan = Floorplan(self.device)
        regions = netlist.regions()
        next_end = self.device.clb_cols  # pack from the right edge
        for region in regions:
            variants = netlist.reconfigurable_modules(region)
            worst = ResourceVector()
            for v in variants:
                need = v.resources.scaled(self.margin)
                worst = ResourceVector(
                    **{k: max(getattr(worst, k), getattr(need, k)) for k in need.as_dict()}
                )
            width, col0 = self._fit(worst, next_end)
            plan.place(region, col0, width)
            next_end = col0
            boundary = plan.boundary_column(region)
            bits = netlist.boundary_bits_of_region(region)
            # Split conservatively: assume half in, half out when unknown.
            bits_in = -(-bits // 2)
            bits_out = bits - bits_in
            try:
                plan.bus_macros[region] = plan_bus_macros(
                    self.device, region, boundary, bits_in, bits_out
                )
            except BusMacroError as err:
                raise FloorplanError(str(err)) from err
            # Re-check the fit with macro TBUFs deducted.
            if not worst.fits_in(plan.region_capacity(region)):
                raise FloorplanError(
                    f"region {region!r}: variants do not fit after bus-macro allocation"
                )
        self._check_static(netlist, plan)
        return plan

    def _fit(self, need: ResourceVector, right_edge: int) -> tuple[int, int]:
        """Find (width, col0) of the narrowest span ending at ``right_edge``
        (sliding left if BRAM columns are required but absent)."""
        width = MIN_WIDTH_CLB
        while width <= right_edge:
            # Slide the span leftward to capture BRAM columns if needed.
            for col0 in range(right_edge - width, -1, -1):
                cap = self.device.column_span_capacity(col0, width)
                if need.fits_in(cap):
                    return width, col0
            width += WIDTH_STEP_CLB
        raise FloorplanError(
            f"no span of {self.device.name} fits requirement {need} "
            f"(right edge {right_edge})"
        )

    def _check_static(self, netlist: Netlist, plan: Floorplan) -> None:
        static_need = ResourceVector.sum(m.resources for m in netlist.static_modules())
        if not static_need.scaled(self.margin).fits_in(plan.static_capacity()):
            raise FloorplanError(
                f"static part needs {static_need} (+margin), only "
                f"{plan.static_capacity()} left after placing regions"
            )
