"""Metric helpers over trace intervals."""

from __future__ import annotations

from typing import Iterable

__all__ = ["interval_union"]


def interval_union(intervals: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Merge possibly-overlapping ``[start, end)`` intervals."""
    ordered = sorted((s, e) for s, e in intervals if e > s)
    merged: list[tuple[int, int]] = []
    for s, e in ordered:
        if merged and s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    return merged
