"""Execution tracing on the simulation clock.

Every runtime component (operators, media, configuration ports, the
reconfiguration manager) records activity intervals into a shared
:class:`Trace`.  Read back, those intervals are :class:`repro.obs.Span`
records on the ``"sim"`` clock (virtual nanoseconds), parented under the
span that was current when the trace was created — so a traced run hands
them to the tracer as they are.  The VCD export, the ASCII Gantt chart and
the Fig. 4 residency Gantt all read these spans.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.obs.tracer import Span, SpanContext, get_tracer, new_trace_id

__all__ = ["Trace"]

_TRACE_SEQ = itertools.count(1)


class Trace:
    """Activity intervals of one simulated platform, read as sim-clock spans."""

    def __init__(self, scope: str = "") -> None:
        #: Namespace label for multi-board runs (e.g. ``"b0042"``) and the
        #: spans' process lane.  Not applied to actor names — per-board
        #: traces keep identical actor vocabularies so they compare equal
        #: across boards.
        self.scope = scope
        # The same parenting rule as ``Tracer.span()``: the innermost open
        # span, else a trace of its own.
        parent = get_tracer().current_context()
        self._trace_id = parent.trace_id if parent is not None else new_trace_id()
        self._parent_id = parent.span_id if parent is not None else None
        # Span ids extend the parent's, which no other process of the run
        # repeats (sweep workers prefix theirs), while the counter restarts
        # in every worker process.
        parent_prefix = f"{self._parent_id}." if parent is not None else ""
        self._id_prefix = f"{parent_prefix}sim{next(_TRACE_SEQ)}-"
        self._open: dict[tuple[str, str], tuple[int, str]] = {}
        #: closed intervals not yet read: ``(actor, kind, start, end, detail)``
        self._closed: list[tuple[str, str, int, int, str]] = []
        self._spans: list[Span] = []

    # -- recording ---------------------------------------------------------

    def begin(self, time: int, actor: str, kind: str, detail: str = "") -> None:
        """Open an activity span (one open span per (actor, kind))."""
        key = (actor, kind)
        if key in self._open:
            raise ValueError(f"span {key} already open")
        self._open[key] = (time, detail)

    def end(self, time: int, actor: str, kind: str) -> None:
        """Close the matching open span."""
        key = (actor, kind)
        if key not in self._open:
            raise ValueError(f"no open span for {key}")
        start, detail = self._open.pop(key)
        if time < start:
            raise ValueError(f"span {key} ends before it starts ({time} < {start})")
        self._closed.append((actor, kind, start, time, detail))

    def is_open(self, actor: str, kind: str) -> bool:
        """True while a span for ``(actor, kind)`` is open."""
        return (actor, kind) in self._open

    def close_open(self, time: int) -> None:
        """Close every open span at ``time`` (end-of-simulation flush).

        Long-lived activity spans — e.g. the reconfiguration manager's
        module-residency intervals — are open until whatever evicts them;
        at the end of a run they are still in flight, so exporters call
        this to turn them into proper closed intervals.
        """
        for actor, kind in sorted(self._open):
            start, _ = self._open[(actor, kind)]
            self.end(max(time, start), actor, kind)

    # -- queries -----------------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        """Every closed interval as a ``clock="sim"`` span, in closing order.

        Intervals become spans only here: recording stays a tuple append.
        """
        process = self.scope or "sim"
        for actor, kind, start, end, detail in self._closed:
            attributes = {"actor": actor, "kind": kind}
            if detail:
                attributes["detail"] = detail
            # Region-scoped spans (the reconfiguration manager's residency
            # and load intervals) expose region/module for the Gantt view.
            if actor.startswith("region."):
                attributes["region"] = actor[len("region."):]
                if detail:
                    attributes["module"] = detail
            self._spans.append(
                Span(
                    name=f"{kind}:{detail}" if detail else kind,
                    context=SpanContext(
                        trace_id=self._trace_id,
                        span_id=f"{self._id_prefix}{len(self._spans) + 1}",
                        parent_id=self._parent_id,
                    ),
                    start_ns=start,
                    duration_ns=end - start,
                    clock="sim",
                    process=process,
                    track=actor,
                    attributes=attributes,
                )
            )
        self._closed.clear()
        return self._spans

    def spans_of(self, actor: Optional[str] = None, kind: Optional[str] = None) -> list[Span]:
        """Spans of one actor and/or kind, ordered by start then end."""
        out = self.spans
        if actor is not None:
            out = [s for s in out if s.track == actor]
        if kind is not None:
            out = [s for s in out if s.attributes["kind"] == kind]
        return sorted(out, key=lambda s: (s.start_ns, s.end_ns))

    def end_time(self) -> int:
        return max((s.end_ns for s in self.spans), default=0)

    # -- presentation --------------------------------------------------------

    def gantt(self, width: int = 72, kinds: Optional[set[str]] = None) -> str:
        """ASCII Gantt chart of spans, one row per actor."""
        spans = [s for s in self.spans if kinds is None or s.attributes["kind"] in kinds]
        if not spans:
            return "(empty trace)"
        t_end = max(s.end_ns for s in spans)
        t_end = max(t_end, 1)
        rows = []
        glyphs = {"compute": "#", "comm": "=", "reconfig": "R", "stall": ".", "prefetch": "p"}
        for actor in sorted({s.track for s in spans}):
            line = [" "] * width
            for s in (x for x in spans if x.track == actor):
                a = min(width - 1, s.start_ns * width // t_end)
                b = min(width - 1, max(a, (s.end_ns * width // t_end) - 1))
                ch = glyphs.get(s.attributes["kind"], "*")
                for i in range(a, b + 1):
                    line[i] = ch
            rows.append(f"{actor:>20} |{''.join(line)}|")
        legend = "  ".join(f"{g}={k}" for k, g in glyphs.items())
        return "\n".join(rows) + f"\n{'':>20}  {legend}  (t_end={t_end})"
