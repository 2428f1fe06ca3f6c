"""Chrome trace-event schema validation (the CI trace gate).

:func:`validate_chrome_trace` checks the structural invariants a healthy
trace export must satisfy before anyone debugs from it:

- the payload is a trace-event container (``traceEvents`` list, or a bare
  event list — both forms load in Perfetto);
- every event carries a ``ph`` phase; ``X`` (complete) events carry
  numeric, non-negative ``ts``/``dur``; ``B``/``E`` duration events pair up
  per ``(pid, tid)`` lane with nothing left open;
- ``C`` (counter) events carry a numeric, non-negative ``ts`` and an
  ``args`` object whose every value is a finite number — a counter track
  with a string sample renders as a silent gap in Perfetto;
- span identity is coherent: no two spans share a ``span_id``, every
  ``parent_id`` referenced by a span resolves to a ``span_id`` present in
  the file (a worker span whose parent was lost in transit fails here),
  and all spans belong to **one** trace.

Returns the list of problems (empty = valid) so the CLI can print them and
CI can fail the build on any.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

__all__ = ["validate_chrome_trace", "validate_trace_file"]

_KNOWN_PHASES = set("BEXIiCbnePSTFsfMNODv(){}")


def validate_chrome_trace(payload: Any) -> list[str]:
    """Structural problems of a parsed Chrome trace-event payload."""
    errors: list[str] = []
    if isinstance(payload, dict):
        events = payload.get("traceEvents")
        if not isinstance(events, list):
            return ["top-level object has no 'traceEvents' list"]
    elif isinstance(payload, list):
        events = payload
    else:
        return [f"payload must be an object or event list, got {type(payload).__name__}"]
    if not events:
        errors.append("trace contains no events")

    open_stacks: dict[tuple, list[int]] = {}
    span_ids: set[str] = set()
    parent_refs: list[tuple[int, str]] = []
    trace_ids: set[str] = set()
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"event #{index}: not an object")
            continue
        phase = event.get("ph")
        if not isinstance(phase, str) or not phase:
            errors.append(f"event #{index}: missing 'ph' phase")
            continue
        if phase not in _KNOWN_PHASES:
            errors.append(f"event #{index}: unknown phase {phase!r}")
            continue
        lane = (event.get("pid"), event.get("tid"))
        if phase == "X":
            for field in ("ts", "dur"):
                value = event.get(field)
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    errors.append(f"event #{index} ({event.get('name')!r}): non-numeric {field!r}")
                elif value < 0:
                    errors.append(f"event #{index} ({event.get('name')!r}): negative {field!r}")
        elif phase == "B":
            open_stacks.setdefault(lane, []).append(index)
        elif phase == "E":
            stack = open_stacks.get(lane)
            if not stack:
                errors.append(f"event #{index}: 'E' with no matching 'B' on lane {lane}")
            else:
                stack.pop()
        elif phase == "C":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or isinstance(ts, bool):
                errors.append(f"event #{index} ({event.get('name')!r}): non-numeric 'ts'")
            elif ts < 0:
                errors.append(f"event #{index} ({event.get('name')!r}): negative 'ts'")
            counter_args = event.get("args")
            if not isinstance(counter_args, dict) or not counter_args:
                errors.append(
                    f"event #{index} ({event.get('name')!r}): counter event needs a "
                    "non-empty 'args' object"
                )
            else:
                for key, value in counter_args.items():
                    if (
                        isinstance(value, bool)
                        or not isinstance(value, (int, float))
                        or value != value  # NaN
                        or value in (float("inf"), float("-inf"))
                    ):
                        errors.append(
                            f"event #{index} ({event.get('name')!r}): counter sample "
                            f"{key!r} is not a finite number"
                        )
        args = event.get("args")
        if phase == "X" and isinstance(args, dict) and "span_id" in args:
            span_id = args.get("span_id")
            if not isinstance(span_id, str) or not span_id:
                errors.append(f"event #{index}: empty span_id")
            elif span_id in span_ids:
                errors.append(f"event #{index}: duplicate span_id {span_id!r}")
            else:
                span_ids.add(span_id)
            parent = args.get("parent_id")
            if parent is not None:
                if not isinstance(parent, str) or not parent:
                    errors.append(f"event #{index}: malformed parent_id {parent!r}")
                else:
                    parent_refs.append((index, parent))
            trace_id = args.get("trace_id")
            if isinstance(trace_id, str) and trace_id:
                trace_ids.add(trace_id)

    for lane, stack in open_stacks.items():
        for index in stack:
            errors.append(f"event #{index}: 'B' never closed on lane {lane}")
    for index, parent in parent_refs:
        if parent not in span_ids:
            errors.append(f"event #{index}: parent_id {parent!r} resolves to no span in the trace")
    if len(trace_ids) > 1:
        errors.append(f"events belong to {len(trace_ids)} traces: {sorted(trace_ids)}")
    return errors


def validate_trace_file(path: "str | Path") -> list[str]:
    """Load ``path`` and validate; unreadable/unparsable files are errors."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as err:
        return [f"cannot read {path}: {err}"]
    except json.JSONDecodeError as err:
        return [f"{path} is not valid JSON: {err}"]
    return validate_chrome_trace(payload)
