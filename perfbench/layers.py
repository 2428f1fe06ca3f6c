"""Span recording for the traced run: wrappers, self time, trace export.

The benchmark does not change the program to trace it.  For the traced
phase it swaps each layer's public entry point for a wrapper that records
one span per call (``installed``), and puts it back afterwards.  A span's
*self* time is its duration minus the time its child spans cover; the
phase's root span keeps only what no layer claimed, reported as ``other``,
so the per-layer self times plus ``other`` add up to the traced wall.

``Recorder(delay=(layer, fraction))`` busy-waits ``fraction`` of each
call's own duration inside that layer's span: the attribution self-test
slows one layer this way and checks that the report names it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.obs import Tracer, validate_trace_file, write_chrome_trace

__all__ = [
    "NullRecorder",
    "Recorder",
    "Patch",
    "self_times",
    "write_trace",
]

ROOT = "bench.phase"

#: (module path, attribute, layer, result hook or None).  ``attribute`` is
#: ``"Class.method"`` to wrap a method on its class, or a module-level name
#: to wrap it where the calling module looks it up.  The hook sees
#: ``(recorder, span handle, call args, return value)`` inside the span.
Patch = tuple[str, str, str, Optional[Callable[["Recorder", Any, tuple, Any], None]]]


def _spin(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


class NullRecorder:
    """The untraced run: spans cost one call and record nothing."""

    def span(self, layer: str, attributes: Optional[dict] = None):
        return contextlib.nullcontext()

    @property
    def facts(self) -> dict[str, list]:
        return defaultdict(list)

    def phase(self):
        return contextlib.nullcontext()


class Recorder:
    """Benchmark-owned span recorder over :class:`repro.obs.Tracer`.

    The tracer is private to the benchmark (never installed as the ambient
    tracer), so the program's own instrumentation stays on its no-op path
    and only these wrapper spans are recorded.
    """

    def __init__(self, delay: Optional[tuple[str, float]] = None):
        self.tracer = Tracer(span_id_prefix="b", process="perfbench")
        self.delay_layer, self.delay_fraction = delay if delay else (None, 0.0)
        #: per-layer facts the hooks collect (scheduler stats, evaluator
        #: stats, acceptance counts), read once the phase is over
        self.facts: dict[str, list] = defaultdict(list)

    @contextlib.contextmanager
    def span(self, layer: str, attributes: Optional[dict] = None) -> Iterator[Any]:
        handle = self.tracer.span(layer, attributes=attributes).start()
        started = time.perf_counter()
        try:
            yield handle
        finally:
            if layer == self.delay_layer:
                _spin(self.delay_fraction * (time.perf_counter() - started))
            handle.end()

    def wrap(self, layer: str, fn: Callable, hook=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer) as handle:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, handle, args, result)
                return result

        return traced

    @contextlib.contextmanager
    def installed(self, patches: Sequence[Patch]) -> Iterator["Recorder"]:
        """Wrap every patch target for the duration of the block."""
        undo: list[tuple[Any, str, Any]] = []
        try:
            for module_path, attribute, layer, hook in patches:
                owner: Any = importlib.import_module(module_path)
                *classes, name = attribute.split(".")
                for cls in classes:
                    owner = getattr(owner, cls)
                original = vars(owner)[name]
                undo.append((owner, name, original))
                setattr(owner, name, self.wrap(layer, original, hook))
            yield self
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

    @contextlib.contextmanager
    def phase(self) -> Iterator[Any]:
        """The root span: its self time is the ``other`` remainder."""
        with self.span(ROOT) as handle:
            yield handle


def self_times(spans) -> dict[str, int]:
    """Layer -> summed self time (ns): duration minus child coverage.

    Spans come from one thread, so children of one span never overlap and
    their coverage is the sum of their durations.
    """
    covered: dict[str, int] = defaultdict(int)
    for span in spans:
        if span.context.parent_id is not None:
            covered[span.context.parent_id] += span.duration_ns
    totals: dict[str, int] = defaultdict(int)
    for span in spans:
        totals[span.name] += span.duration_ns - covered[span.context.span_id]
    return dict(totals)


def write_trace(path, recorder: Recorder, metadata: dict) -> list[str]:
    """Write the spans as Chrome trace JSON; returns the validator's problems."""
    write_chrome_trace(path, recorder.tracer.spans, metadata=metadata)
    return validate_trace_file(path)
