"""Benchmark telemetry history and the regression gate.

``BENCH_*.json`` files are write-once snapshots: each benchmark run
overwrites the last, so the repo never learns whether a headline drifted.
This module gives benchmarks a *trajectory*: every result appends one
schema-versioned entry (bench name, headline metric, value, direction,
host fingerprint, digest detail) to ``benchmarks/results/HISTORY.jsonl``,
and :func:`bench_check` — surfaced as ``repro bench-check`` — fails when
the latest entry regresses more than a threshold against the trailing
median of its predecessors.

Design points:

- **Headline extraction is centralized** in :data:`HEADLINES` rather than
  spread across bench files: ``benchmarks/conftest.write_result`` calls
  :func:`append_from_result` for every benchmark, and :func:`backfill`
  replays already-committed ``BENCH_*.json`` files through the same
  extractors, so history and backfill can never disagree about what a
  bench's headline is.
- **Trailing median, not last value**, is the baseline: one lucky run
  cannot ratchet the bar to a level no honest run clears, and one noisy
  run cannot hide a real regression established over several entries.
- **Smoke and full runs never compare against each other** (an entry's
  ``smoke`` flag is part of its identity) and entries from a schema newer
  than this reader refuse to load — a half-understood history is worse
  than none.
"""

from __future__ import annotations

import json
import math
import os
import platform
import socket
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

__all__ = [
    "HISTORY_SCHEMA_VERSION",
    "DEFAULT_HISTORY_PATH",
    "HEADLINES",
    "HistoryEntry",
    "HistoryError",
    "CheckResult",
    "host_fingerprint",
    "extract_headline",
    "append_entry",
    "append_from_result",
    "load_history",
    "bench_check",
    "backfill",
]

#: Version stamped on every history entry.
HISTORY_SCHEMA_VERSION = 1

#: Default location, relative to the repository root.
DEFAULT_HISTORY_PATH = Path("benchmarks") / "results" / "HISTORY.jsonl"


def _scheduler_headline(payload: Mapping) -> float:
    """Best incremental-vs-naive speedup at the largest problem size."""
    rows = payload.get("rows") or []
    if not rows:
        raise KeyError("rows")
    largest = max(int(r.get("operations", 0)) for r in rows)
    return max(
        float(r["speedup"]) for r in rows if int(r.get("operations", 0)) == largest
    )


def _search_headline(payload: Mapping) -> float:
    """Annealer evaluations per second (budget-independent throughput)."""
    return float(payload["evaluations"]) / float(payload["wall_s"])


def _sweep_headline(payload: Mapping) -> float:
    """Warm-pool speedup on the largest parallel grid."""
    runs = payload.get("runs") or []
    speedups = [float(r["speedup"]) for r in runs if "speedup" in r]
    if not speedups:
        raise KeyError("speedup")
    return max(speedups)


#: bench name -> (metric name, extractor, higher_is_better, unit).
#: The extractor is a dotted path into the result payload or a callable.
HEADLINES: dict[str, tuple[str, Union[str, Callable[[Mapping], float]], bool, str]] = {
    "fleet_throughput": (
        "fast.requests_per_sec", "headline.fast.requests_per_sec", True, "req/s",
    ),
    "linklevel_throughput": ("overall_speedup", "overall_speedup", True, "x"),
    "obs_overhead": ("noop_span_ns", "noop_span_ns", False, "ns"),
    "obs_telemetry_overhead": (
        "telemetry_overhead_pct", "telemetry_overhead_pct", False, "%",
    ),
    "scheduler_scaling": ("speedup_at_largest", _scheduler_headline, True, "x"),
    "search_anneal": ("evaluations_per_sec", _search_headline, True, "evals/s"),
    "sweep_parallel": ("grid_speedup", _sweep_headline, True, "x"),
}


class HistoryError(ValueError):
    """A history file, or a gate setting, that the gate cannot use."""


@dataclass(frozen=True)
class HistoryEntry:
    """One benchmark headline observation."""

    bench: str
    metric: str
    value: float
    higher_is_better: bool
    unit: str
    smoke: bool
    recorded_at: str
    host: Mapping[str, object] = field(default_factory=dict)
    detail: Mapping[str, object] = field(default_factory=dict)
    schema: int = HISTORY_SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "bench": self.bench,
            "metric": self.metric,
            "value": self.value,
            "higher_is_better": self.higher_is_better,
            "unit": self.unit,
            "smoke": self.smoke,
            "recorded_at": self.recorded_at,
            "host": dict(self.host),
            "detail": dict(self.detail),
        }

    @classmethod
    def from_dict(cls, row: Mapping) -> "HistoryEntry":
        schema = int(row.get("schema", 0))
        if schema > HISTORY_SCHEMA_VERSION:
            raise ValueError(
                f"history entry schema {schema} is newer than supported "
                f"{HISTORY_SCHEMA_VERSION}"
            )
        return cls(
            bench=str(row["bench"]),
            metric=str(row["metric"]),
            value=float(row["value"]),
            higher_is_better=bool(row.get("higher_is_better", True)),
            unit=str(row.get("unit", "")),
            smoke=bool(row.get("smoke", False)),
            recorded_at=str(row.get("recorded_at", "")),
            host=dict(row.get("host", {})),
            detail=dict(row.get("detail", {})),
            schema=schema,
        )


def host_fingerprint() -> dict:
    """Where a measurement came from — context for cross-host noise."""
    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def _dig(payload: Mapping, path: str) -> float:
    value: object = payload
    for part in path.split("."):
        value = value[part]  # type: ignore[index]
    return float(value)  # type: ignore[arg-type]


def extract_headline(bench: str, payload: Mapping) -> Optional[HistoryEntry]:
    """Build an entry from a bench result payload; None for unknown benches.

    ``bench`` may carry a ``_smoke`` suffix (the file-name convention);
    the suffix selects the smoke lineage but the registry key is the base
    name.
    """
    base = bench[:-len("_smoke")] if bench.endswith("_smoke") else bench
    spec = HEADLINES.get(base)
    if spec is None:
        return None
    metric, extractor, higher_is_better, unit = spec
    value = extractor(payload) if callable(extractor) else _dig(payload, extractor)
    if not math.isfinite(value):
        raise ValueError(f"bench {bench!r}: headline {metric!r} is not finite")
    detail = {}
    for key in ("digest", "best_of", "budget"):
        if key in payload:
            detail[key] = payload[key]
    headline = payload.get("headline")
    if isinstance(headline, Mapping) and "digest" in headline:
        detail["digest"] = headline["digest"]
    return HistoryEntry(
        bench=base,
        metric=metric,
        value=value,
        higher_is_better=higher_is_better,
        unit=unit,
        smoke=bool(payload.get("smoke", bench.endswith("_smoke"))),
        recorded_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        host=host_fingerprint(),
        detail=detail,
    )


def append_entry(path: Union[str, Path], entry: HistoryEntry) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as stream:
        stream.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")


def append_from_result(
    path: Union[str, Path], bench: str, payload: Mapping
) -> Optional[HistoryEntry]:
    """Extract-and-append in one step (the ``write_result`` hook)."""
    entry = extract_headline(bench, payload)
    if entry is not None:
        append_entry(path, entry)
    return entry


def load_history(path: Union[str, Path]) -> list[HistoryEntry]:
    path = Path(path)
    if not path.exists():
        return []
    entries = []
    with path.open("r", encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, 1):
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(HistoryEntry.from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise HistoryError(f"{path}:{lineno}: malformed history entry: {exc!r}") from None
    return entries


@dataclass(frozen=True)
class CheckResult:
    """The gate's verdict for one (bench, metric, smoke) lineage."""

    bench: str
    metric: str
    smoke: bool
    status: str  # "ok" | "regression" | "insufficient-history"
    latest: float
    baseline: Optional[float]  # trailing median of prior entries
    change_pct: Optional[float]  # signed; positive = improvement
    unit: str
    n_prior: int

    @property
    def ok(self) -> bool:
        return self.status != "regression"

    def describe(self) -> str:
        name = f"{self.bench}/{self.metric}" + (" [smoke]" if self.smoke else "")
        if self.status == "insufficient-history":
            return f"{name}: {self.latest:g} {self.unit} (no prior entries; pass)"
        sign = "+" if self.change_pct >= 0 else ""
        return (
            f"{name}: {self.latest:g} {self.unit} vs trailing median "
            f"{self.baseline:g} ({sign}{self.change_pct:.1f}%) -> {self.status}"
        )


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def bench_check(
    path: Union[str, Path],
    threshold_pct: float = 10.0,
    trailing: int = 5,
    benches: Optional[Iterable[str]] = None,
) -> list[CheckResult]:
    """Judge the latest entry of every lineage against its trailing median.

    A lineage is ``(bench, metric, smoke)``. The baseline is the median of
    up to ``trailing`` entries *before* the latest; a lineage with no
    prior entries passes as ``insufficient-history`` (the gate cannot
    invent a baseline).  Regression means the latest is worse than the
    baseline by more than ``threshold_pct`` percent, direction-aware.
    """
    if threshold_pct < 0:
        raise HistoryError(f"threshold_pct must be >= 0, got {threshold_pct:g}")
    wanted = set(benches) if benches is not None else None
    lineages: dict[tuple[str, str, bool], list[HistoryEntry]] = {}
    for entry in load_history(path):
        if wanted is not None and entry.bench not in wanted:
            continue
        lineages.setdefault((entry.bench, entry.metric, entry.smoke), []).append(entry)

    results = []
    for (bench, metric, smoke), entries in sorted(lineages.items()):
        latest = entries[-1]
        prior = entries[:-1][-trailing:]
        if not prior:
            results.append(
                CheckResult(
                    bench=bench, metric=metric, smoke=smoke,
                    status="insufficient-history", latest=latest.value,
                    baseline=None, change_pct=None, unit=latest.unit, n_prior=0,
                )
            )
            continue
        baseline = _median([e.value for e in prior])
        if baseline == 0:
            change_pct = 0.0 if latest.value == 0 else math.inf
        else:
            change_pct = (latest.value - baseline) / abs(baseline) * 100.0
        if not latest.higher_is_better:
            change_pct = -change_pct  # normalize: positive = improvement
        status = "regression" if change_pct < -threshold_pct else "ok"
        results.append(
            CheckResult(
                bench=bench, metric=metric, smoke=smoke, status=status,
                latest=latest.value, baseline=baseline, change_pct=change_pct,
                unit=latest.unit, n_prior=len(prior),
            )
        )
    return results


def backfill(
    results_dir: Union[str, Path],
    history_path: Union[str, Path],
    skip_existing: bool = True,
) -> list[HistoryEntry]:
    """Seed history from committed ``BENCH_*.json`` snapshots.

    Replays each file through the same :data:`HEADLINES` extractors the
    live path uses.  With ``skip_existing`` (the default), lineages that
    already have history are left alone so re-running backfill is
    idempotent.  Every file is read before any entry is appended, so a
    malformed one (:class:`HistoryError`) leaves the history untouched.
    """
    results_dir = Path(results_dir)
    existing = {
        (e.bench, e.metric, e.smoke) for e in load_history(history_path)
    }
    appended = []
    for path in sorted(results_dir.glob("BENCH_*.json")):
        bench = path.stem[len("BENCH_"):]
        try:
            entry = extract_headline(bench, json.loads(path.read_text(encoding="utf-8")))
        except (ValueError, LookupError, TypeError, AttributeError, ArithmeticError) as exc:
            raise HistoryError(f"{path}: malformed bench result: {exc!r}") from None
        if entry is None:
            continue
        if skip_existing and (entry.bench, entry.metric, entry.smoke) in existing:
            continue
        row = entry.to_dict()
        row["detail"]["backfilled_from"] = path.name
        appended.append(HistoryEntry.from_dict(row))
    for entry in appended:
        append_entry(history_path, entry)
    return appended
