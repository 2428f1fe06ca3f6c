"""Bridge from the discrete-event kernel's trace onto the unified span model.

:func:`spans_from_sim_trace` re-bases the kernel's :class:`repro.sim.Trace`
spans onto the tracer model: every sim :class:`repro.sim.Span` becomes an
:class:`repro.obs.Span` in the ``"sim"`` clock domain (virtual
nanoseconds), parented under a given span context so runtime-simulation
activity hangs off the flow/job that ran it.  Numbers need no bridge: the
layers that own them write straight into the ambient
:class:`~repro.obs.telemetry.Telemetry` hub.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from repro.obs.tracer import Span, SpanContext, new_trace_id

__all__ = ["spans_from_sim_trace"]

_BRIDGE_SEQ = itertools.count(1)


def spans_from_sim_trace(
    trace,
    parent: Optional[SpanContext] = None,
    process: Optional[str] = None,
    include_kinds: Optional[Sequence[str]] = None,
) -> list[Span]:
    """Sim-kernel trace spans as unified ``clock="sim"`` spans.

    ``parent`` (usually the job or simulation span on the wall clock)
    becomes every bridged span's parent, so the trace tree stays connected
    across the clock-domain boundary.  ``include_kinds`` filters by sim span
    kind (``compute``, ``comm``, ``reconfig``, ``prefetch``, ``resident``…).

    ``process`` names the Perfetto process lane.  When omitted it falls back
    to the trace's own ``scope`` (the per-board namespace a fleet run sets),
    then to ``"sim"`` — so a multi-board trace set renders one lane per
    board without callers plumbing names through.
    """
    if process is None:
        process = getattr(trace, "scope", "") or "sim"
    trace_id = parent.trace_id if parent is not None else new_trace_id()
    parent_id = parent.span_id if parent is not None else None
    prefix = f"sim{next(_BRIDGE_SEQ)}-"
    out: list[Span] = []
    for i, sim_span in enumerate(trace.spans):
        if include_kinds is not None and sim_span.kind not in include_kinds:
            continue
        attributes = {"actor": sim_span.actor, "kind": sim_span.kind}
        if sim_span.detail:
            attributes["detail"] = sim_span.detail
        # Region-scoped spans (the reconfiguration manager's residency and
        # load intervals) expose region/module directly for the Gantt view.
        if sim_span.actor.startswith("region."):
            attributes["region"] = sim_span.actor[len("region."):]
            if sim_span.detail:
                attributes["module"] = sim_span.detail
        name = f"{sim_span.kind}:{sim_span.detail}" if sim_span.detail else sim_span.kind
        out.append(
            Span(
                name=name,
                context=SpanContext(
                    trace_id=trace_id, span_id=f"{prefix}{i + 1}", parent_id=parent_id
                ),
                start_ns=sim_span.start,
                duration_ns=sim_span.duration,
                clock="sim",
                process=process,
                track=sim_span.actor,
                attributes=attributes,
            )
        )
    return out
