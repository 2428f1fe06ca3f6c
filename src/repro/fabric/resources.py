"""FPGA resource vectors.

A :class:`ResourceVector` counts the Virtex-II primitives a design consumes:
slices, 4-input LUTs, flip-flops, 3-state buffers (TBUFs), block RAMs and
18×18 multipliers — exactly the rows of the paper's Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Mapping

__all__ = ["ResourceVector"]


@dataclass(frozen=True, slots=True)
class ResourceVector:
    """An immutable count of fabric primitives; supports vector arithmetic."""

    slices: int = 0
    luts: int = 0
    ffs: int = 0
    tbufs: int = 0
    brams: int = 0
    mults: int = 0

    def __post_init__(self) -> None:
        for name in _FIELDS:
            v = getattr(self, name)
            if not isinstance(v, int):
                raise TypeError(f"{name} must be an int, got {type(v).__name__}")
            if v < 0:
                raise ValueError(f"{name} must be >= 0, got {v}")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_mapping(cls, counts: Mapping[str, int]) -> "ResourceVector":
        """Build from a dict; unknown keys are rejected loudly."""
        unknown = set(counts) - set(_FIELDS)
        if unknown:
            raise KeyError(f"unknown resource keys: {sorted(unknown)}")
        return cls(**{k: int(v) for k, v in counts.items()})

    @classmethod
    def sum(cls, vectors: Iterable["ResourceVector"]) -> "ResourceVector":
        total = cls()
        for v in vectors:
            total = total + v
        return total

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(*[getattr(self, n) + getattr(other, n) for n in _FIELDS])

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(*[getattr(self, n) - getattr(other, n) for n in _FIELDS])

    def scaled(self, factor: float) -> "ResourceVector":
        """Ceil-scaled copy (used for safety margins)."""
        return ResourceVector(*[int(-(-getattr(self, n) * factor // 1)) for n in _FIELDS])

    # -- queries ---------------------------------------------------------------

    def fits_in(self, capacity: "ResourceVector") -> bool:
        return all(getattr(self, n) <= getattr(capacity, n) for n in _FIELDS)

    def headroom(self, capacity: "ResourceVector") -> dict[str, int]:
        """Remaining capacity per resource (may be negative if over budget)."""
        return {n: getattr(capacity, n) - getattr(self, n) for n in _FIELDS}

    def utilization(self, capacity: "ResourceVector") -> dict[str, float]:
        out = {}
        for n in _FIELDS:
            cap = getattr(capacity, n)
            used = getattr(self, n)
            out[n] = used / cap if cap else 0.0
        return out

    def dominant_utilization(self, capacity: "ResourceVector") -> float:
        """The binding constraint: max utilization across resource types."""
        return max(self.utilization(capacity).values(), default=0.0)

    def as_dict(self) -> dict[str, int]:
        return {n: getattr(self, n) for n in _FIELDS}

    @property
    def is_zero(self) -> bool:
        return all(getattr(self, n) == 0 for n in _FIELDS)

    def __str__(self) -> str:
        parts = [f"{name}={v}" for name, v in self.as_dict().items() if v]
        return "ResourceVector(" + (", ".join(parts) or "0") + ")"


#: The field names in declaration order, resolved once.
_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(ResourceVector))
