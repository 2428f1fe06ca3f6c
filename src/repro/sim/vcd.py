"""VCD (Value Change Dump) export of simulation traces.

Writes the runtime activity of a simulation — operator busy/idle, medium
busy/idle, reconfiguration windows, and arbitrary signals like
``In_Reconf`` — as a standard VCD file that waveform viewers (GTKWave &c.)
open directly.  This is the observability a hardware engineer would expect
from the flow's dynamic-verification stage.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.channels import Signal
from repro.sim.trace import Trace

__all__ = ["trace_to_vcd"]

#: Printable VCD identifier characters.
_ID_ALPHABET = "".join(chr(c) for c in range(33, 127))


def _identifier(index: int) -> str:
    """Short unique VCD identifier for the n-th variable."""
    chars = []
    index += 1
    while index:
        index, rem = divmod(index - 1, len(_ID_ALPHABET))
        chars.append(_ID_ALPHABET[rem])
    return "".join(reversed(chars))


def _sanitize(name: str) -> str:
    return name.replace(" ", "_").replace("$", "_")


def trace_to_vcd(
    trace: Trace,
    signals: Optional[dict[str, Signal]] = None,
    timescale: str = "1 ns",
    design_name: str = "repro",
) -> str:
    """Render a trace (plus optional level signals) as VCD text.

    Every (actor, kind) span pair becomes a 1-bit wire that is high while a
    span of that kind is active on that actor; every entry of ``signals``
    becomes a wire driven by the signal's recorded history (non-bool values
    are emitted as real-number changes).
    """
    signals = signals or {}

    # Collect variables.
    span_keys = sorted({(s.track, s.attributes["kind"]) for s in trace.spans})
    variables: list[tuple[str, str]] = []  # (vcd_id, label)
    for actor, kind in span_keys:
        variables.append((f"{actor}.{kind}", "wire"))
    for name, sig in signals.items():
        sample = sig.history[0][1] if sig.history else None
        vtype = "wire" if isinstance(sample, bool) or sample in (0, 1, None) else "real"
        variables.append((name, vtype))

    ids = {label: _identifier(i) for i, (label, _t) in enumerate(variables)}
    types = dict(variables)

    lines = [
        "$date generated by repro $end",
        f"$timescale {timescale} $end",
        f"$scope module {_sanitize(design_name)} $end",
    ]
    for label, vtype in variables:
        kind = "wire 1" if types[label] == "wire" else "real 64"
        lines.append(f"$var {kind} {ids[label]} {_sanitize(label)} $end")
    lines.append("$upscope $end")
    lines.append("$enddefinitions $end")

    # Build the change list: time -> list of (id, value string).
    changes: dict[int, list[str]] = {}

    def emit(time: int, vcd_id: str, value, vtype: str) -> None:
        if vtype == "wire":
            encoded = f"{1 if value else 0}{vcd_id}"
        else:
            encoded = f"r{float(value)} {vcd_id}"
        changes.setdefault(time, []).append(encoded)

    from repro.sim.metrics import interval_union

    for actor, kind in span_keys:
        label = f"{actor}.{kind}"
        vcd_id = ids[label]
        emit(0, vcd_id, 0, "wire")
        merged = interval_union(
            (s.start_ns, s.end_ns) for s in trace.spans_of(actor=actor, kind=kind)
        )
        for start, end in merged:
            emit(start, vcd_id, 1, "wire")
            emit(end, vcd_id, 0, "wire")
    for name, sig in signals.items():
        vcd_id = ids[name]
        vtype = types[name]
        for time, value in sig.history:
            emit(time, vcd_id, bool(value) if vtype == "wire" else value, vtype)

    for time in sorted(changes):
        lines.append(f"#{time}")
        lines.extend(changes[time])
    end = trace.end_time()
    if end not in changes:
        lines.append(f"#{end}")
    return "\n".join(lines) + "\n"
