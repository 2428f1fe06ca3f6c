"""Flow narration: rows rebuilt from the spans of one recording.

A run narrates itself through the ambient tracer (:mod:`repro.obs.tracer`)
and nothing else.  Any span carrying a ``flow`` attribute is a *row*:

- a pipeline stage span ``stage:<name>`` carries ``flow``, ``cache_hit``,
  the stage's full ``fingerprint`` and one ``metric.<name>`` attribute per
  stage metric;
- the sweep engine records one ``sweep:<kind>`` span per lifecycle step
  (job dispatched/started/finished/retried/timed out/failed, worker
  spawned/crashed, sweep completed) carrying ``flow`` and its metrics;
- the link engine's ``link:batch``, ``link:point`` and ``link:run`` spans
  carry ``flow`` and their batch or run metrics.

:class:`FlowEvent` is the row type: :meth:`FlowEvent.from_span` rebuilds one
from its span, and :func:`row_attributes` writes the attributes it reads.
The pipeline also keeps the rows it builds on ``FlowResult.events``, so an
untraced run still reports its stages.  :func:`render_profile` (the CLI's
``--profile``) and :func:`flow_rows` (behind ``--log-json``) are views of
the same recording that ``--trace`` exports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.obs.tracer import Span
from repro.sim.metrics import interval_union

__all__ = ["FlowEvent", "row_attributes", "flow_rows", "render_profile"]

_METRIC = "metric."


@dataclass(frozen=True)
class FlowEvent:
    """One narration row: a pipeline stage, sweep step or link batch."""

    flow: str  #: flow identity, e.g. ``"mccdma_tx@sundance"``
    stage: str  #: stage name (``modelisation`` … ``executive``, ``sweep:*``, ``link:*``)
    cache_hit: bool  #: True when the artefact came from the ArtifactCache
    wall_time_s: float  #: wall-clock time spent in the stage (lookup + execute)
    fingerprint: str  #: content-addressed key of the stage's inputs ("" for non-stage rows)
    metrics: Mapping[str, object] = field(default_factory=dict)

    @property
    def status(self) -> str:
        return "hit" if self.cache_hit else "miss"

    @classmethod
    def from_span(cls, span: Span) -> "FlowEvent":
        """The row a span narrates; stage spans drop their ``stage:`` prefix."""
        attributes = span.attributes
        return cls(
            flow=attributes["flow"],
            stage=span.name.removeprefix("stage:"),
            cache_hit=attributes.get("cache_hit", False),
            wall_time_s=span.duration_ns / 1e9,
            fingerprint=attributes.get("fingerprint", ""),
            metrics={
                key[len(_METRIC):]: value
                for key, value in attributes.items()
                if key.startswith(_METRIC)
            },
        )

    def to_dict(self) -> dict:
        return {
            "flow": self.flow,
            "stage": self.stage,
            "status": self.status,
            "cache_hit": self.cache_hit,
            "wall_time_s": self.wall_time_s,
            "fingerprint": self.fingerprint,
            "metrics": dict(self.metrics),
        }


def row_attributes(flow: str, metrics: Mapping[str, object], **fields: object) -> dict:
    """The span attributes that make a span the row :meth:`FlowEvent.from_span` reads."""
    attributes = {"flow": flow, **fields}
    for name, value in metrics.items():
        attributes[_METRIC + name] = value
    return attributes


def _row_spans(spans: Iterable[Span]) -> list[Span]:
    return [span for span in spans if "flow" in span.attributes]


def flow_rows(spans: Iterable[Span]) -> list[FlowEvent]:
    """Every row of a recording, in recording (span end) order."""
    return [FlowEvent.from_span(span) for span in _row_spans(spans)]


def render_profile(spans: Iterable[Span], aggregate: bool = False) -> str:
    """Per-stage profile table (the CLI's ``--profile`` output).

    The default layout prints one line per row — right for a single flow,
    unreadable for a sweep that replays the same stages hundreds of times.
    ``aggregate=True`` groups rows by stage and reports execution count,
    cache hit rate and total/mean wall time per stage instead.  Either way
    the ``total`` line reports the wall time the rows cover (nested and
    overlapping rows count once), and hits among the rows that carry a
    fingerprint: the stage cache lookups.
    """
    row_spans = _row_spans(spans)
    if not row_spans:
        return "flow profile: no stage events recorded"
    rows = [FlowEvent.from_span(span) for span in row_spans]
    covered_ms = sum(
        end - start for start, end in interval_union((s.start_ns, s.end_ns) for s in row_spans)
    ) / 1e6
    lookups = [e for e in rows if e.fingerprint]
    hits = sum(1 for e in lookups if e.cache_hit)
    if aggregate:
        return _render_profile_aggregate(rows, covered_ms, hits, len(lookups))
    width = max(len(e.stage) for e in rows)
    lines = [f"{'stage':<{width}}  {'cache':<5}  {'time':>10}  fingerprint   metrics"]
    for e in rows:
        metrics = " ".join(f"{k}={v}" for k, v in sorted(e.metrics.items()))
        lines.append(
            f"{e.stage:<{width}}  {e.status:<5}  {e.wall_time_s * 1e3:>7.2f} ms  "
            f"{e.fingerprint[:12]}  {metrics}".rstrip()
        )
    lines.append(f"{'total':<{width}}  {hits}/{len(lookups)} hit  {covered_ms:>7.2f} ms")
    return "\n".join(lines)


def _render_profile_aggregate(
    rows: list[FlowEvent], covered_ms: float, hits: int, lookups: int
) -> str:
    """Per-stage rollup: count / hit rate / total + mean time, busiest first."""
    groups: dict[str, list[FlowEvent]] = {}
    for event in rows:
        groups.setdefault(event.stage, []).append(event)
    width = max(max(len(stage) for stage in groups), len("stage"))
    lines = [
        f"{'stage':<{width}}  {'count':>5}  {'hits':>4}  {'rate':>5}  "
        f"{'total':>11}  {'mean':>11}"
    ]
    ordered = sorted(
        groups.items(), key=lambda kv: (-sum(e.wall_time_s for e in kv[1]), kv[0])
    )
    for stage, events in ordered:
        total = sum(e.wall_time_s for e in events)
        stage_hits = sum(1 for e in events if e.cache_hit)
        lines.append(
            f"{stage:<{width}}  {len(events):>5}  {stage_hits:>4}  "
            f"{100 * stage_hits / len(events):>4.0f}%  {total * 1e3:>8.2f} ms  "
            f"{total / len(events) * 1e3:>8.2f} ms"
        )
    rate = 100 * hits / lookups if lookups else 0.0
    lines.append(
        f"{'total':<{width}}  {lookups:>5}  {hits:>4}  {rate:>4.0f}%  {covered_ms:>8.2f} ms"
    )
    return "\n".join(lines)
