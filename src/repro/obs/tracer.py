"""Hierarchical span tracing.

One tracer serves every layer of the flow — pipeline stages, sweep jobs,
worker processes, the link engine and (in virtual time) the discrete-event
runtime — so a single run produces a single tree of spans:

- :class:`SpanContext` is the propagatable identity of a span
  (``trace_id`` / ``span_id`` / ``parent_id``); it is a small frozen
  dataclass that pickles cleanly, so the sweep engine can ship it over a
  worker pipe and the worker's spans parent correctly across the process
  boundary.
- :class:`Span` is one finished interval with an attribute bag.  Wall-clock
  spans are timed with the *monotonic* ``perf_counter_ns`` clock and mapped
  onto the epoch through a per-tracer anchor, so durations never go
  backwards and spans from different processes still share one timeline.
  Spans of the simulation kernel's :class:`repro.sim.Trace` carry virtual
  nanoseconds and are marked ``clock="sim"``.
- :class:`Tracer` is the recording implementation; :class:`NoopTracer` is
  the **default** and is zero-cost: ``span()`` returns a shared inert
  handle, no ids are generated, no clocks are read.  Instrumentation sites
  guard attribute construction behind ``tracer.enabled``.

The ambient tracer (:func:`get_tracer` / :func:`set_tracer` /
:func:`use_tracer`) lets deep library code participate in a trace without
threading a tracer argument through every signature.  The same pattern
serves the telemetry hub (:mod:`repro.obs.telemetry`).
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Optional

__all__ = [
    "SpanContext",
    "Span",
    "SpanHandle",
    "NoopSpanHandle",
    "Tracer",
    "NoopTracer",
    "NOOP_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "new_trace_id",
]

_TRACE_SEQ = itertools.count(1)


def new_trace_id() -> str:
    """A process-unique trace id (epoch-seeded so runs rarely collide)."""
    return f"t{time.time_ns():x}-{next(_TRACE_SEQ)}"


@dataclass(frozen=True)
class SpanContext:
    """The propagatable identity of a span (pickles cleanly)."""

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None

    def child_of(self, span_id: str) -> "SpanContext":
        return SpanContext(trace_id=self.trace_id, span_id=span_id, parent_id=self.span_id)


@dataclass
class Span:
    """One finished activity interval."""

    name: str
    #: identity, not content: two runs' spans compare equal without it
    context: SpanContext = field(compare=False)
    start_ns: int  #: epoch ns for ``clock="wall"``, virtual ns for ``clock="sim"``
    duration_ns: int
    clock: str = "wall"  #: ``"wall"`` or ``"sim"``
    process: str = "main"  #: logical process (chrome-trace pid lane)
    track: str = "main"  #: logical thread/track within the process (tid lane)
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.duration_ns

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.context.trace_id,
            "span_id": self.context.span_id,
            "parent_id": self.context.parent_id,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "clock": self.clock,
            "process": self.process,
            "track": self.track,
            "attributes": dict(self.attributes),
        }


class SpanHandle:
    """An open span: context manager or explicit ``start()``/``end()``."""

    __slots__ = ("tracer", "name", "context", "attributes", "_start_perf", "_done")

    def __init__(self, tracer: "Tracer", name: str, context: SpanContext,
                 attributes: Optional[Mapping[str, Any]]):
        self.tracer = tracer
        self.name = name
        self.context = context
        self.attributes: dict[str, Any] = dict(attributes) if attributes else {}
        self._start_perf: Optional[int] = None
        self._done = False

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def start(self) -> "SpanHandle":
        if self._start_perf is None:
            self._start_perf = time.perf_counter_ns()
            self.tracer._stack.append(self)
        return self

    def end(self) -> Optional[Span]:
        if self._done or self._start_perf is None:
            return None
        self._done = True
        now = time.perf_counter_ns()
        stack = self.tracer._stack
        if self in stack:  # tolerate out-of-order ends of overlapping spans
            stack.remove(self)
        span = Span(
            name=self.name,
            context=self.context,
            start_ns=self.tracer.to_epoch_ns(self._start_perf),
            duration_ns=now - self._start_perf,
            clock="wall",
            process=self.tracer.process,
            track=self.tracer.track,
            attributes=self.attributes,
        )
        self.tracer.spans.append(span)
        return span

    def __enter__(self) -> "SpanHandle":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attributes.setdefault("error", f"{exc_type.__name__}: {exc}")
        self.end()


class NoopSpanHandle:
    """Shared inert handle returned by :class:`NoopTracer` — no state, no cost."""

    __slots__ = ()
    context = None

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def start(self) -> "NoopSpanHandle":
        return self

    def end(self) -> None:
        return None

    def __enter__(self) -> "NoopSpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NOOP_HANDLE = NoopSpanHandle()


class Tracer:
    """Recording tracer: collects finished :class:`Span` records in memory.

    ``span_id_prefix`` namespaces span ids so several processes contributing
    to one trace (the sweep workers) can generate ids without coordination.
    """

    enabled = True

    def __init__(
        self,
        trace_id: Optional[str] = None,
        span_id_prefix: str = "s",
        process: str = "main",
        track: str = "main",
        span_seq: Optional[Iterator[int]] = None,
    ):
        self.trace_id = trace_id or new_trace_id()
        self.span_id_prefix = span_id_prefix
        self.process = process
        self.track = track
        self.spans: list[Span] = []
        #: ``span_seq`` lets a caller share one id counter across several
        #: tracers with the same prefix — a long-lived pool worker serves
        #: many traced runs (each with its own tracer) and must never
        #: repeat a ``w<id>-N`` span id.
        self._seq = span_seq if span_seq is not None else itertools.count(1)
        self._stack: list[SpanHandle] = []
        #: Anchor mapping the monotonic clock onto the epoch: spans are
        #: *timed* monotonically and *placed* on the shared epoch timeline.
        self._anchor_epoch_ns = time.time_ns()
        self._anchor_perf_ns = time.perf_counter_ns()

    def to_epoch_ns(self, perf_ns: int) -> int:
        return self._anchor_epoch_ns + (perf_ns - self._anchor_perf_ns)

    def next_span_id(self) -> str:
        return f"{self.span_id_prefix}{next(self._seq)}"

    def current_context(self) -> Optional[SpanContext]:
        """Context of the innermost open span, if any."""
        return self._stack[-1].context if self._stack else None

    def span(
        self,
        name: str,
        parent: Optional[SpanContext] = None,
        attributes: Optional[Mapping[str, Any]] = None,
    ) -> SpanHandle:
        """A new handle; parented to ``parent`` or the innermost open span."""
        if parent is None:
            parent = self.current_context()
        context = SpanContext(
            trace_id=parent.trace_id if parent is not None else self.trace_id,
            span_id=self.next_span_id(),
            parent_id=parent.span_id if parent is not None else None,
        )
        return SpanHandle(self, name, context, attributes)

    def add_span(self, span: Span) -> None:
        """Adopt a finished span produced elsewhere (worker pipe, sim trace)."""
        self.spans.append(span)

    def add_spans(self, spans) -> None:
        self.spans.extend(spans)


class NoopTracer:
    """The default tracer: records nothing, allocates nothing."""

    enabled = False
    trace_id = ""
    process = "main"
    track = "main"

    def span(self, name: str, parent: Optional[SpanContext] = None,
             attributes: Optional[Mapping[str, Any]] = None) -> NoopSpanHandle:
        return _NOOP_HANDLE

    def current_context(self) -> None:
        return None

    def add_span(self, span: Span) -> None:
        pass

    def add_spans(self, spans) -> None:
        pass


NOOP_TRACER = NoopTracer()
_current_tracer: "Tracer | NoopTracer" = NOOP_TRACER


def get_tracer() -> "Tracer | NoopTracer":
    """The ambient tracer (the shared no-op tracer unless one was set)."""
    return _current_tracer


def set_tracer(tracer: "Tracer | NoopTracer | None"):
    """Install ``tracer`` (``None`` restores the no-op); returns the previous."""
    global _current_tracer
    previous = _current_tracer
    _current_tracer = tracer if tracer is not None else NOOP_TRACER
    return previous


@contextmanager
def use_tracer(tracer: "Tracer | NoopTracer") -> Iterator["Tracer | NoopTracer"]:
    """Scoped :func:`set_tracer`: restores the previous tracer on exit."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
