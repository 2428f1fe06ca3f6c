"""Streaming, dimensionally-labeled time-series: the run's one numeric substrate.

Every number a run reports lives here — whole-run totals and the windowed
views of how the run evolved (hit rate per 50 ms of simulated time, p99
stall latency per window, worker-pool queue depth over the wall clock) —
at a memory cost bounded by the window count, not the event count.

Three pieces:

- :class:`TimeSeriesStore` — fixed-width windows over an integer time axis
  (simulated ns, wall ns, or any monotone index such as search
  evaluations).  Series are ``(name, label set)`` keyed: counters add,
  gauges keep the last write per window, quantile series fold samples into
  a mergeable :class:`~repro.obs.sketch.QuantileSketch`.  A ring retention
  policy drops the oldest windows once ``retention`` is exceeded, so a
  million-request run holds a sliding frame of recent history instead of
  growing without bound.  One write-behind entry point,
  :meth:`~TimeSeriesStore.defer_array`, serves the fast fleet engine's
  step-batch flushes: it appends a zero-argument batch producer, and the
  producer runs, is validated and is aggregated into windows at the
  series' first read — the simulation's timed path pays a list append,
  the dashboard/export/SLO reader pays the numpy grouping.
- :class:`SloMonitor` — evaluates declarative :class:`SloRule` objects
  (floor / ceiling / band, optionally on a sketch quantile or on the ratio
  of two counter series) per closed window and emits typed
  :class:`SloBreach` events.
- :class:`Telemetry` — a named collection of stores (one per clock
  domain), installable as the ambient telemetry hub
  (:func:`get_telemetry` / :func:`use_telemetry`).  The default ambient is
  ``None``: telemetry is strictly opt-in and instrumentation sites guard
  with one ``is None`` check, so the disabled cost is a dict lookup.
  The ``run`` domain is a single-window store holding the run's totals —
  counts as counters, point-in-time values as gauges, wall times as sketch
  observations, all written at ``t=0`` — and its :meth:`~TimeSeriesStore.snapshot`
  is the ``metrics`` block of a ``--trace`` run manifest.  Traced pool
  workers ship their hub's :meth:`Telemetry.to_rows` back to the sweep
  engine, which folds them in with :func:`store_row`, so run totals and
  windowed series share one merge path across processes.

Label cardinality is the operator's responsibility: series are cheap per
label *set*, so label by policy, region, pool or worker — never by request
or board id (a 1k-board fleet labeled per board multiplies every window by
1000).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from repro.obs.sketch import DEFAULT_RELATIVE_ACCURACY, QuantileSketch

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "LabelSet",
    "label_suffix",
    "TimeSeriesStore",
    "SloRule",
    "SloBreach",
    "SloMonitor",
    "Telemetry",
    "get_telemetry",
    "set_telemetry",
    "use_telemetry",
]

#: Version stamped on every serialized telemetry row.
TELEMETRY_SCHEMA_VERSION = 1

#: Bias keeping sketch bucket indices non-negative inside the composite
#: (window, bucket) keys the write-behind sketch drain sorts on.
_BUCKET_BIAS = 1 << 20

#: Canonical label-set form: sorted ``(key, value)`` tuples (hashable).
LabelSet = tuple

_KINDS = ("counter", "gauge", "quantile")


def _label_set(labels: Mapping[str, object]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def label_suffix(label_set: LabelSet) -> str:
    """The ``{k=v,...}`` suffix naming a labeled series ("" when unlabeled)."""
    if not label_set:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in label_set) + "}"


@dataclass
class _Series:
    """One (name, label set) series: kind plus per-window values."""

    kind: str
    #: window index -> int/float (counter, gauge) or QuantileSketch
    windows: dict = field(default_factory=dict)
    #: write-behind buffer of ``(t, values)`` batch producers appended by
    #: :meth:`TimeSeriesStore.defer_array`; drained on first read
    pending: list = field(default_factory=list)


class TimeSeriesStore:
    """Fixed-width windowed series over one integer time axis.

    ``window`` is the window width in axis units (ns for the sim/wall
    clocks, evaluations for the search axis).  ``retention`` bounds memory:
    once more than ``retention`` distinct windows hold data, the oldest are
    dropped (``evicted_windows`` counts them — a dashboard reading zero
    there knows it saw the whole run).
    """

    def __init__(
        self,
        window: int,
        retention: int = 512,
        clock: str = "sim",
        sketch_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
    ):
        if window < 1:
            raise ValueError(f"window width must be >= 1, got {window}")
        if retention < 2:
            raise ValueError(f"retention must be >= 2 windows, got {retention}")
        self.window = int(window)
        self.retention = int(retention)
        self.clock = clock
        self.sketch_accuracy = float(sketch_accuracy)
        self._series: dict[tuple[str, LabelSet], _Series] = {}
        #: windows dropped by the ring retention policy (0 = full history)
        self.evicted_windows = 0

    # -- recording ---------------------------------------------------------

    def _get_series(self, name: str, labels: Mapping[str, object], kind: str) -> _Series:
        key = (name, _label_set(labels))
        series = self._series.get(key)
        if series is None:
            series = _Series(kind=kind)
            self._series[key] = series
        elif series.kind != kind:
            raise TypeError(
                f"series {name!r}{dict(key[1])} already recorded as "
                f"{series.kind}, not {kind}"
            )
        return series

    def window_index(self, t: Union[int, float]) -> int:
        return int(t) // self.window

    def window_bounds(self, index: int) -> tuple[int, int]:
        """``[start, end)`` of window ``index`` in axis units."""
        return index * self.window, (index + 1) * self.window

    def counter_add(
        self, name: str, t: Union[int, float], value: Union[int, float] = 1, **labels
    ) -> None:
        if value < 0:
            raise ValueError(f"counter {name!r}: increment must be >= 0")
        series = self._get_series(name, labels, "counter")
        w = self.window_index(t)
        series.windows[w] = series.windows.get(w, 0) + value
        self._retain(series)

    def gauge_set(self, name: str, t: Union[int, float], value: Union[int, float], **labels) -> None:
        series = self._get_series(name, labels, "gauge")
        series.windows[self.window_index(t)] = value
        self._retain(series)

    def observe(self, name: str, t: Union[int, float], value: Union[int, float], **labels) -> None:
        series = self._get_series(name, labels, "quantile")
        w = self.window_index(t)
        sketch = series.windows.get(w)
        if sketch is None:
            sketch = series.windows[w] = QuantileSketch(self.sketch_accuracy)
        sketch.add(value)
        self._retain(series)

    def defer_array(self, name: str, kind: str, batch, **labels) -> None:
        """Append a lazy ``(t, values)`` batch producer (write-behind).

        ``batch`` is a zero-argument callable returning event times ``t``
        and per-event ``values``: counter increments (None counts one per
        event), gauge contributions *added* to each window (port busy-ns
        summed per window, unlike the last-write-wins :meth:`gauge_set`),
        or sketch observations.  It runs once, at the series' next read —
        instrumentation that must not even pay concatenation inside a
        timed region (the fast fleet engine's flush) hands over closures
        capturing raw per-step arrays.  Validation happens then too, so a
        bad producer fails at the first read.
        """
        if kind not in _KINDS:
            raise ValueError(f"unknown series kind {kind!r}")
        self._get_series(name, labels, kind).pending.append(batch)

    # -- write-behind drain ------------------------------------------------

    def _window_slots(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batch times → ``(slot, window_of_slot)`` grouping.

        A flush batch spans a bounded stretch of its clock, so windows
        occupy a small dense range: ``np.bincount`` over ``window - min``
        groups the batch in O(n) with no sort.  Degenerate sparse batches
        (a huge time span with few events) fall back to ``np.unique`` —
        never a giant allocation.
        """
        windows = t.astype(np.int64) // self.window
        wmin = int(windows.min())
        n_slots = int(windows.max()) - wmin + 1
        if n_slots > 4 * windows.size + 1024:
            uniq, slots = np.unique(windows, return_inverse=True)
            return slots, uniq
        return windows - wmin, np.arange(wmin, wmin + n_slots)

    def _drain(self, series: _Series) -> None:
        """Run a series' pending batch producers and aggregate into windows."""
        if not series.pending:
            return
        pending, series.pending = series.pending, []
        batches = []
        for batch in pending:
            t, values = batch()
            t = np.asarray(t)
            if values is not None:
                values = np.asarray(values).ravel()
            if t.size == 0:
                continue
            self._check_batch(series.kind, t, values)
            batches.append((t, values))
        if not batches:
            return
        if series.kind == "counter":
            # unweighted and weighted appends may interleave; group each
            unweighted = [t for t, v in batches if v is None]
            weighted = [(t, v) for t, v in batches if v is not None]
            if unweighted:
                self._drain_counts(series, np.concatenate(unweighted))
            if weighted:
                self._drain_sums(
                    series,
                    np.concatenate([t for t, _ in weighted]),
                    np.concatenate([v for _, v in weighted]),
                )
        elif series.kind == "gauge":
            self._drain_sums(
                series,
                np.concatenate([t for t, _ in batches]),
                np.concatenate([v for _, v in batches]),
            )
        else:
            self._drain_sketches(
                series,
                np.concatenate([t for t, _ in batches]),
                np.concatenate([v for _, v in batches]),
            )
        self._retain(series)

    def _check_batch(self, kind: str, t: np.ndarray, values) -> None:
        """Validate one materialized ``(t, values)`` batch of a ``kind`` series."""
        if values is None:
            if kind != "counter":
                raise ValueError(f"deferred {kind} batch must carry values")
            return
        if values.shape != t.shape:
            raise ValueError(
                f"deferred {kind} batch: t and values must match, "
                f"got {t.shape} vs {values.shape}"
            )
        if kind == "counter":
            if np.any(values < 0):
                raise ValueError("deferred counter batch: increments must be >= 0")
        elif kind == "quantile":
            if np.any(values < 0) or not np.all(np.isfinite(values)):
                raise ValueError(
                    "deferred quantile batch: values must be finite and >= 0"
                )
        elif not np.all(np.isfinite(values)):
            raise ValueError("deferred gauge batch: values must be finite")

    def _drain_all(self) -> None:
        for series in self._series.values():
            self._drain(series)

    def _drain_counts(self, series: _Series, t: np.ndarray) -> None:
        slots, win_of_slot = self._window_slots(t)
        counts = np.bincount(slots, minlength=len(win_of_slot))
        nz = np.nonzero(counts)[0]
        windows = series.windows
        for w, count in zip(win_of_slot[nz].tolist(), counts[nz].tolist()):
            windows[w] = windows.get(w, 0) + count

    def _drain_sums(self, series: _Series, t: np.ndarray, values: np.ndarray) -> None:
        slots, win_of_slot = self._window_slots(t)
        values = values.astype(np.float64, copy=False)
        sums = np.bincount(slots, weights=values, minlength=len(win_of_slot))
        occupied = np.bincount(slots, minlength=len(win_of_slot))
        nz = np.nonzero(occupied)[0]
        windows = series.windows
        for w, total in zip(win_of_slot[nz].tolist(), sums[nz].tolist()):
            increment = int(total) if total.is_integer() else total
            windows[w] = windows.get(w, 0) + increment

    def _drain_sketches(self, series: _Series, t: np.ndarray, values: np.ndarray) -> None:
        """One bucketing pass over the whole batch plus one composite
        ``(window, bucket)`` ``np.unique`` replace a per-window
        :meth:`QuantileSketch.add_array` loop."""
        values = values.astype(np.float64, copy=False)
        windows = t.astype(np.int64) // self.window
        uniq, pos = np.unique(windows, return_inverse=True)
        n = len(uniq)
        counts = np.bincount(pos, minlength=n)
        sums = np.bincount(pos, weights=values, minlength=n)
        mins = np.full(n, np.inf)
        maxs = np.full(n, -np.inf)
        np.minimum.at(mins, pos, values)
        np.maximum.at(maxs, pos, values)
        probe = QuantileSketch(self.sketch_accuracy)
        small = values < probe.min_value
        zeros = np.bincount(pos[small], minlength=n)
        sketches: list[QuantileSketch] = []
        for i in range(n):
            w = int(uniq[i])
            sketch = series.windows.get(w)
            if sketch is None:
                sketch = series.windows[w] = QuantileSketch(self.sketch_accuracy)
            sketch.count += int(counts[i])
            sketch.sum += float(sums[i])
            sketch.zero_count += int(zeros[i])
            sketch._min = min(sketch._min, float(mins[i]))
            sketch._max = max(sketch._max, float(maxs[i]))
            sketches.append(sketch)
        large_values = values[~small]
        if large_values.size:
            large_pos = pos[~small].astype(np.int64)
            bucket = np.ceil(np.log(large_values) / probe._log_gamma).astype(np.int64)
            # Composite int64 key: window slot in the high bits, biased
            # bucket index in the low 32 (|bucket| stays in the thousands
            # for any ns-scale dynamic range, so the bias cannot collide).
            keys = (large_pos << 32) | (bucket + _BUCKET_BIAS)
            unique_keys, key_counts = np.unique(keys, return_counts=True)
            slots = (unique_keys >> 32).tolist()
            bucket_ids = ((unique_keys & 0xFFFFFFFF) - _BUCKET_BIAS).tolist()
            for slot, index, count in zip(slots, bucket_ids, key_counts.tolist()):
                buckets = sketches[slot]._buckets
                buckets[index] = buckets.get(index, 0) + count

    def _retain(self, series: _Series) -> None:
        """Ring retention: drop oldest windows beyond the budget."""
        excess = len(series.windows) - self.retention
        if excess > 0:
            for w in sorted(series.windows)[:excess]:
                del series.windows[w]
            self.evicted_windows += excess

    # -- queries -----------------------------------------------------------

    def series_names(self) -> list[str]:
        return sorted({name for name, _ in self._series})

    def label_sets(self, name: str) -> list[LabelSet]:
        return sorted(ls for n, ls in self._series if n == name)

    def kind(self, name: str) -> Optional[str]:
        for (n, _), series in self._series.items():
            if n == name:
                return series.kind
        return None

    def window_indices(self) -> list[int]:
        """All windows holding data, sorted (the dashboard's time axis)."""
        self._drain_all()
        out: set[int] = set()
        for series in self._series.values():
            out.update(series.windows)
        return sorted(out)

    def value(self, name: str, window: int, **labels):
        """Raw window value (number or sketch), or None when absent."""
        series = self._series.get((name, _label_set(labels)))
        if series is None:
            return None
        self._drain(series)
        return series.windows.get(window)

    def quantile(self, name: str, window: int, q: float, **labels) -> Optional[float]:
        sketch = self.value(name, window, **labels)
        if sketch is None:
            return None
        if not isinstance(sketch, QuantileSketch):
            raise TypeError(f"series {name!r} is not a quantile series")
        return sketch.quantile(q)

    def series(self, name: str, **labels) -> list[tuple[int, object]]:
        """``(window, value)`` pairs for one series, window-sorted."""
        stored = self._series.get((name, _label_set(labels)))
        if stored is None:
            return []
        self._drain(stored)
        return sorted(stored.windows.items())

    def total(self, name: str, **labels) -> Union[int, float]:
        """Sum of a counter series across retained windows."""
        stored = self._series.get((name, _label_set(labels)))
        if stored is None:
            return 0
        if stored.kind != "counter":
            raise TypeError(f"series {name!r} is a {stored.kind}, not a counter")
        self._drain(stored)
        return sum(stored.windows.values())

    def snapshot(self) -> dict:
        """Every series reduced over its retained windows, sorted by name.

        Counters sum, gauges report the latest window's value and quantile
        series merge into one sketch summary: count, sum, exact min/max and
        p50/p95/p99 clamped into ``[min, max]`` (so a series of equal
        values reads exactly).  Labeled series are keyed ``name{k=v,...}``.
        On the hub's single-window ``run`` store this is the run manifest's
        ``metrics`` block.
        """
        self._drain_all()
        out: dict[str, dict] = {}
        for (name, label_set), series in sorted(self._series.items()):
            if not series.windows:
                continue
            values = [series.windows[w] for w in sorted(series.windows)]
            if series.kind == "counter":
                entry = {"type": "counter", "value": sum(values)}
            elif series.kind == "gauge":
                entry = {"type": "gauge", "value": values[-1]}
            else:
                merged = QuantileSketch(self.sketch_accuracy)
                for sketch in values:
                    merged.merge(sketch)
                entry = {"type": "quantile", **merged.summary()}
                for q in ("p50", "p95", "p99"):
                    entry[q] = min(max(entry[q], merged.min), merged.max)
            out[name + label_suffix(label_set)] = entry
        return out

    def __len__(self) -> int:
        return len(self._series)

    # -- merge / serialization --------------------------------------------

    def merge(self, other: "TimeSeriesStore") -> None:
        """Fold another store in (cross-process/cross-shard aggregation).

        Counters add, gauges take the incoming value, sketches merge
        exactly.  Window widths must agree — merging mixed resolutions
        would silently mislabel time.
        """
        if other.window != self.window:
            raise ValueError(
                f"cannot merge window={other.window} into window={self.window}"
            )
        self._drain_all()
        other._drain_all()
        for (name, label_set), theirs in sorted(other._series.items()):
            labels = dict(label_set)
            mine = self._get_series(name, labels, theirs.kind)
            for w, value in sorted(theirs.windows.items()):
                if theirs.kind == "counter":
                    mine.windows[w] = mine.windows.get(w, 0) + value
                elif theirs.kind == "gauge":
                    mine.windows[w] = value
                else:
                    sketch = mine.windows.get(w)
                    if sketch is None:
                        sketch = mine.windows[w] = QuantileSketch(self.sketch_accuracy)
                    sketch.merge(value)
            self._retain(mine)

    def to_rows(self) -> list[dict]:
        """One JSON-safe row per (series, window), deterministically ordered.

        The first row is a meta header carrying the axis parameters, so a
        reader (``repro tail``) can rebuild an equivalent store without
        out-of-band knowledge.  Quantile rows carry the *full* sketch (it
        is small — bounded by the bucket count) plus a display summary.
        """
        self._drain_all()
        rows: list[dict] = [
            {
                "schema": TELEMETRY_SCHEMA_VERSION,
                "meta": True,
                "window": self.window,
                "clock": self.clock,
                "retention": self.retention,
                "evicted_windows": self.evicted_windows,
            }
        ]
        for (name, label_set), series in sorted(self._series.items()):
            for w, value in sorted(series.windows.items()):
                t_start, t_end = self.window_bounds(w)
                row = {
                    "schema": TELEMETRY_SCHEMA_VERSION,
                    "name": name,
                    "labels": dict(label_set),
                    "type": series.kind,
                    "window": w,
                    "t_start": t_start,
                    "t_end": t_end,
                }
                if series.kind == "quantile":
                    row["sketch"] = value.to_dict()
                    row["summary"] = value.summary()
                else:
                    row["value"] = value
                rows.append(row)
        return rows

    def write_jsonl(self, target: Union[str, Path, IO[str]]) -> int:
        """Write :meth:`to_rows` as JSON lines; returns the row count."""
        rows = self.to_rows()
        if isinstance(target, (str, Path)):
            path = Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("w", encoding="utf-8") as stream:
                for row in rows:
                    stream.write(json.dumps(row, sort_keys=True) + "\n")
        else:
            for row in rows:
                target.write(json.dumps(row, sort_keys=True) + "\n")
        return len(rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Mapping]) -> "TimeSeriesStore":
        """Rebuild a store from :meth:`to_rows` output (tail/merge tooling).

        Rows with a newer schema than this code understands raise — a
        silent partial read would render a misleading dashboard.
        """
        store: Optional[TimeSeriesStore] = None
        pending: list[Mapping] = []

        def ensure_store(row: Mapping) -> "TimeSeriesStore":
            return cls(
                window=int(row.get("window", 1)),
                retention=int(row.get("retention", 512)),
                clock=str(row.get("clock", "sim")),
            )

        for row in rows:
            schema = row.get("schema", 0)
            if schema > TELEMETRY_SCHEMA_VERSION:
                raise ValueError(
                    f"telemetry row schema {schema} is newer than supported "
                    f"{TELEMETRY_SCHEMA_VERSION}"
                )
            if row.get("meta"):
                store = ensure_store(row)
                store.evicted_windows = int(row.get("evicted_windows", 0))
                continue
            if store is None:
                pending.append(row)
                continue
            store_row(store, row)
        if store is None:
            store = cls(window=1)
        for row in pending:
            store_row(store, row)
        return store

    @classmethod
    def read_jsonl(cls, path: Union[str, Path]) -> "TimeSeriesStore":
        rows = []
        with Path(path).open("r", encoding="utf-8") as stream:
            for line in stream:
                line = line.strip()
                if line:
                    rows.append(json.loads(line))
        return cls.from_rows(rows)


def store_row(store: TimeSeriesStore, row: Mapping) -> None:
    """Insert one serialized row into ``store`` (exact for all kinds)."""
    kind = row.get("type")
    if kind not in _KINDS:
        raise ValueError(f"unknown telemetry row type {kind!r}")
    name = str(row["name"])
    labels = {str(k): str(v) for k, v in dict(row.get("labels", {})).items()}
    w = int(row["window"])
    series = store._get_series(name, labels, kind)
    if kind == "counter":
        series.windows[w] = series.windows.get(w, 0) + row.get("value", 0)
    elif kind == "gauge":
        series.windows[w] = row.get("value", 0)
    else:
        sketch = QuantileSketch.from_dict(row.get("sketch", {}))
        existing = series.windows.get(w)
        if existing is None:
            series.windows[w] = sketch
        else:
            existing.merge(sketch)
    store._retain(series)


# ---------------------------------------------------------------------------
# SLO monitoring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SloRule:
    """One declarative service-level objective, evaluated per window.

    ``kind`` is ``"floor"`` (breach when value < ``threshold``),
    ``"ceiling"`` (breach when value > ``threshold``) or ``"band"``
    (breach outside ``[low, high]``).  The evaluated value is, per window
    and per label set of ``series`` matching the ``labels`` filter:

    - a counter/gauge window value directly;
    - with ``quantile`` set, that quantile of a sketch series (a p99
      reconfiguration-latency ceiling);
    - with ``denominator`` set, the ratio ``series / denominator`` of two
      counter series sharing the label set (a hit-rate floor) — windows
      whose denominator is below ``min_count`` are skipped, so a
      two-request window cannot page anyone about a 50% hit rate.
    """

    name: str
    series: str
    kind: str
    threshold: Optional[float] = None
    low: Optional[float] = None
    high: Optional[float] = None
    quantile: Optional[float] = None
    denominator: Optional[str] = None
    labels: Mapping[str, str] = field(default_factory=dict)
    min_count: int = 1

    def __post_init__(self):
        if self.kind not in ("floor", "ceiling", "band"):
            raise ValueError(f"rule {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "band":
            if self.low is None or self.high is None:
                raise ValueError(f"band rule {self.name!r} needs low and high")
            if self.low > self.high:
                raise ValueError(f"band rule {self.name!r}: low > high")
        elif self.threshold is None:
            raise ValueError(f"{self.kind} rule {self.name!r} needs a threshold")
        if self.quantile is not None and not 0.0 <= self.quantile <= 1.0:
            raise ValueError(f"rule {self.name!r}: quantile must be in [0, 1]")

    def bounds(self) -> tuple[Optional[float], Optional[float]]:
        if self.kind == "floor":
            return self.threshold, None
        if self.kind == "ceiling":
            return None, self.threshold
        return self.low, self.high

    def violated_by(self, value: float) -> bool:
        low, high = self.bounds()
        if low is not None and value < low:
            return True
        if high is not None and value > high:
            return True
        return False


@dataclass(frozen=True)
class SloBreach:
    """A typed breach event: one rule violated in one window."""

    rule: str
    kind: str
    series: str
    window: int
    t_start: int
    t_end: int
    labels: LabelSet
    observed: float
    low: Optional[float]
    high: Optional[float]

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "kind": self.kind,
            "series": self.series,
            "window": self.window,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "labels": dict(self.labels),
            "observed": self.observed,
            "low": self.low,
            "high": self.high,
        }

    def describe(self) -> str:
        labels = ",".join(f"{k}={v}" for k, v in self.labels)
        bound = (
            f">= {self.low:g}" if self.kind == "floor"
            else f"<= {self.high:g}" if self.kind == "ceiling"
            else f"in [{self.low:g}, {self.high:g}]"
        )
        return (
            f"SLO {self.rule} [{labels}] window {self.window} "
            f"[{self.t_start}..{self.t_end}): observed {self.observed:g}, "
            f"required {bound}"
        )


class SloMonitor:
    """Evaluates :class:`SloRule` objects against a store's closed windows.

    Each ``(rule, label set, window)`` combination is judged at most once
    — re-running :meth:`evaluate` after more data arrives only reports
    windows not yet seen, so a polling dashboard gets a stream of *new*
    breach events, not repeats.
    """

    def __init__(self, store: TimeSeriesStore, rules: Sequence[SloRule] = ()):
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names: {sorted(names)}")
        self.store = store
        self.rules = list(rules)
        self.breaches: list[SloBreach] = []
        self._judged: set[tuple[str, LabelSet, int]] = set()
        #: evaluations per rule name (windows judged, breached or not)
        self.windows_judged: dict[str, int] = {r.name: 0 for r in self.rules}

    def add_rule(self, rule: SloRule) -> None:
        if any(r.name == rule.name for r in self.rules):
            raise ValueError(f"duplicate rule name {rule.name!r}")
        self.rules.append(rule)
        self.windows_judged[rule.name] = 0

    def _rule_value(
        self, rule: SloRule, label_set: LabelSet, window: int
    ) -> Optional[float]:
        labels = dict(label_set)
        value = self.store.value(rule.series, window, **labels)
        if value is None:
            return None
        if isinstance(value, QuantileSketch):
            if value.count < rule.min_count:
                return None
            return value.quantile(rule.quantile if rule.quantile is not None else 0.5)
        if rule.denominator is not None:
            denom = self.store.value(rule.denominator, window, **labels)
            if denom is None or denom < rule.min_count:
                return None
            return float(value) / float(denom)
        return float(value)

    def evaluate(self, up_to: Optional[int] = None) -> list[SloBreach]:
        """Judge every unseen (rule, label set, window); returns new breaches.

        ``up_to`` (exclusive window index) restricts evaluation to closed
        windows — a live run passes the window currently being filled so
        half-full windows are not judged against full-window SLOs.
        """
        fresh: list[SloBreach] = []
        for rule in self.rules:
            want = dict(rule.labels)
            for label_set in self.store.label_sets(rule.series):
                have = dict(label_set)
                if any(have.get(k) != str(v) for k, v in want.items()):
                    continue
                stored = self.store._series.get((rule.series, label_set))
                self.store._drain(stored)
                for window in sorted(stored.windows):
                    if up_to is not None and window >= up_to:
                        continue
                    key = (rule.name, label_set, window)
                    if key in self._judged:
                        continue
                    value = self._rule_value(rule, label_set, window)
                    if value is None:
                        continue
                    self._judged.add(key)
                    self.windows_judged[rule.name] += 1
                    if rule.violated_by(value):
                        t_start, t_end = self.store.window_bounds(window)
                        low, high = rule.bounds()
                        fresh.append(
                            SloBreach(
                                rule=rule.name,
                                kind=rule.kind,
                                series=rule.series,
                                window=window,
                                t_start=t_start,
                                t_end=t_end,
                                labels=label_set,
                                observed=value,
                                low=low,
                                high=high,
                            )
                        )
        self.breaches.extend(fresh)
        return fresh


# ---------------------------------------------------------------------------
# the ambient telemetry hub
# ---------------------------------------------------------------------------

#: Default window widths per clock domain (axis units).
DEFAULT_WINDOWS = {
    "sim": 50_000_000,      # 50 ms of simulated time
    "wall": 250_000_000,    # 250 ms of wall clock
    "search": 50,           # 50 evaluations
    "run": 1 << 62,         # one window: whole-run totals, written at t=0
}


class Telemetry:
    """Named :class:`TimeSeriesStore` collection, one per clock domain.

    Different subsystems tick on unrelated axes — the fleet on simulated
    nanoseconds, the worker pool on the wall clock, the annealer on its
    evaluation counter — so the hub keys stores by domain name and creates
    them on first use with :data:`DEFAULT_WINDOWS` widths (overridable via
    ``windows``).  The ``run`` domain's one window holds the run totals
    every layer writes (``hub.store("run").counter_add(name, 0, n)``).
    """

    def __init__(self, windows: Optional[Mapping[str, int]] = None, retention: int = 512):
        self.windows = {**DEFAULT_WINDOWS, **(windows or {})}
        self.retention = retention
        self._stores: dict[str, TimeSeriesStore] = {}

    def store(self, domain: str = "wall", window: Optional[int] = None) -> TimeSeriesStore:
        """Get or create the domain's store (``window`` overrides on create)."""
        existing = self._stores.get(domain)
        if existing is not None:
            return existing
        width = window if window is not None else self.windows.get(domain, DEFAULT_WINDOWS["wall"])
        clock = domain if domain in ("sim", "wall") else "index"
        created = TimeSeriesStore(width, retention=self.retention, clock=clock)
        self._stores[domain] = created
        return created

    def domains(self) -> list[str]:
        return sorted(self._stores)

    def to_rows(self) -> list[dict]:
        """Every domain's rows, each tagged with its domain."""
        rows: list[dict] = []
        for domain in self.domains():
            for row in self._stores[domain].to_rows():
                row["domain"] = domain
                rows.append(row)
        return rows


_current_telemetry: Optional[Telemetry] = None


def get_telemetry() -> Optional[Telemetry]:
    """The ambient hub, or None (the default: telemetry disabled)."""
    return _current_telemetry


def set_telemetry(hub: Optional[Telemetry]) -> Optional[Telemetry]:
    """Install ``hub`` as ambient (None disables); returns the previous."""
    global _current_telemetry
    previous = _current_telemetry
    _current_telemetry = hub
    return previous


@contextmanager
def use_telemetry(hub: Optional[Telemetry] = None) -> Iterator[Telemetry]:
    """Scoped :func:`set_telemetry` (fresh hub by default); restores on exit."""
    hub = hub if hub is not None else Telemetry()
    previous = set_telemetry(hub)
    try:
        yield hub
    finally:
        set_telemetry(previous)
