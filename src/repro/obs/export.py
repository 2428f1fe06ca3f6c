"""Trace exporters: Chrome trace-event JSON, Gantt views, run manifests.

Three consumers of one span list:

- :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event JSON format (``chrome://tracing`` and https://ui.perfetto.dev
  load it directly).  Every span becomes one complete ``"X"`` event; the
  span identity (``trace_id``/``span_id``/``parent_id``) rides in ``args``
  so the parent chain survives the export and the schema validator
  (:mod:`repro.obs.validate`) can check it.  Wall-clock spans and
  virtual-time (``clock="sim"``) spans are kept on separate process lanes:
  their clocks are unrelated, and Perfetto renders named lanes side by side.
  The run's numbers ride along as ``"C"`` counter-track events:
  :func:`counter_events_from_store` unrolls a windowed
  :class:`~repro.obs.telemetry.TimeSeriesStore` into one counter sample per
  window, so hit rates and p99 latencies render as graphs under the span
  lanes.  ``chrome_trace(..., telemetry=hub)`` gives every store of a
  :class:`~repro.obs.telemetry.Telemetry` hub its own lane — the
  single-window ``run`` totals as one sample each, the fleet's ``sim``
  series per simulated window, the worker pool's ``wall`` series on the
  span lanes' time axis.
- :func:`render_region_gantt` / :func:`render_region_gantt_svg` — the
  paper's Fig. 4 view: module residency per dynamic region over virtual
  time, with reconfiguration/prefetch intervals overlaid.
- :func:`build_manifest` / :func:`write_manifest` — the run manifest
  (argv, git revision, seed, the hub's run totals) that makes a trace file
  self-describing.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from repro.obs.telemetry import Telemetry, label_suffix
from repro.obs.tracer import Span

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "counter_events_from_store",
    "region_timeline",
    "render_region_gantt",
    "render_region_gantt_svg",
    "build_manifest",
    "write_manifest",
    "manifest_path_for",
]


# -- chrome trace-event JSON -------------------------------------------------------


def _lane_maps(spans: Sequence[Span]) -> tuple[dict[str, int], dict[tuple[str, str], int]]:
    """Deterministic pid/tid assignment: sorted labels, ids from 1."""
    processes = sorted({_process_label(s) for s in spans})
    pids = {label: i + 1 for i, label in enumerate(processes)}
    tracks = sorted({(_process_label(s), s.track) for s in spans})
    tids: dict[tuple[str, str], int] = {}
    per_process: dict[str, int] = {}
    for process, track in tracks:
        per_process[process] = per_process.get(process, 0) + 1
        tids[(process, track)] = per_process[process]
    return pids, tids


def _process_label(span: Span) -> str:
    """Sim-domain spans get their own lane: the clocks are unrelated."""
    return span.process if span.clock == "wall" else f"{span.process} [sim time]"


def counter_events_from_store(
    store: Any, pid: int = 0, quantiles: Sequence[float] = (0.5, 0.99)
) -> list[dict]:
    """Windowed telemetry series as ``"C"`` counter tracks, one sample per window.

    Counter and gauge series emit their per-window value at the window start
    (sim-time nanoseconds → microseconds, matching the sim span lane).
    Quantile series fan out into ``<name>/count`` plus one ``<name>/p<q>``
    track per requested quantile, so the p99 reconfiguration-latency SLO
    input is visible as a graph.  Label sets become distinct tracks via a
    ``{k=v,...}`` suffix.
    """
    events: list[dict] = []
    for name in store.series_names():
        kind = store.kind(name)
        for label_set in store.label_sets(name):
            labels = dict(label_set)
            suffix = label_suffix(label_set)
            for window, value in store.series(name, **labels):
                ts_us = store.window_bounds(window)[0] / 1e3
                if kind in ("counter", "gauge"):
                    events.append(
                        {
                            "name": f"{name}{suffix}",
                            "ph": "C",
                            "ts": ts_us,
                            "pid": pid,
                            "tid": 0,
                            "args": {"value": value},
                        }
                    )
                else:  # quantile sketch
                    events.append(
                        {
                            "name": f"{name}/count{suffix}",
                            "ph": "C",
                            "ts": ts_us,
                            "pid": pid,
                            "tid": 0,
                            "args": {"value": value.count},
                        }
                    )
                    for q in quantiles:
                        label = f"p{q * 100:g}"
                        events.append(
                            {
                                "name": f"{name}/{label}{suffix}",
                                "ph": "C",
                                "ts": ts_us,
                                "pid": pid,
                                "tid": 0,
                                "args": {"value": value.quantile(q)},
                            }
                        )
    events.sort(key=lambda e: (e["name"], e["ts"]))
    return events


def chrome_trace(
    spans: Sequence[Span],
    metadata: Optional[Mapping[str, Any]] = None,
    telemetry: Optional[Telemetry] = None,
) -> dict:
    """The spans as a Chrome trace-event JSON object (Perfetto-loadable).

    ``telemetry`` (a :class:`~repro.obs.telemetry.Telemetry` hub) adds one
    counter lane per non-empty store: ``telemetry [sim time]`` for the
    sim-clock store, next to the sim span lanes, and
    ``telemetry [<domain>]`` for the others.  Wall-clock stores are shifted
    onto the wall spans' time origin.
    """
    pids, tids = _lane_maps(spans)
    wall_starts = [s.start_ns for s in spans if s.clock == "wall"]
    wall_origin = min(wall_starts) if wall_starts else 0
    counter_lanes = []
    for domain in telemetry.domains() if telemetry is not None else ():
        store = telemetry.store(domain)
        if len(store):
            label = "sim time" if store.clock == "sim" else domain
            counter_lanes.append((f"telemetry [{label}]", store))
    next_pid = len(pids)
    for label, _store in counter_lanes:
        next_pid += 1
        pids[label] = next_pid
    events: list[dict] = []
    for label, pid in pids.items():
        events.append(
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0, "args": {"name": label}}
        )
    for (process, track), tid in sorted(tids.items(), key=lambda item: item[1]):
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pids[process],
                "tid": tid,
                "args": {"name": track},
            }
        )
    for span in spans:
        label = _process_label(span)
        origin = wall_origin if span.clock == "wall" else 0
        args: dict[str, Any] = {
            "trace_id": span.context.trace_id,
            "span_id": span.context.span_id,
            "parent_id": span.context.parent_id,
        }
        args.update(span.attributes)
        events.append(
            {
                "name": span.name,
                "cat": span.clock,
                "ph": "X",
                "ts": (span.start_ns - origin) / 1e3,  # microseconds
                "dur": span.duration_ns / 1e3,
                "pid": pids[label],
                "tid": tids[(label, span.track)],
                "args": args,
            }
        )
    for label, store in counter_lanes:
        counter_events = counter_events_from_store(store, pid=pids[label])
        if store.clock == "wall":
            for event in counter_events:
                event["ts"] = max(0.0, event["ts"] - wall_origin / 1e3)
        events.extend(counter_events)
    payload: dict[str, Any] = {"traceEvents": events, "displayTimeUnit": "ms"}
    if metadata:
        payload["metadata"] = dict(metadata)
    return payload


def write_chrome_trace(
    path: "str | Path",
    spans: Sequence[Span],
    metadata: Optional[Mapping[str, Any]] = None,
    telemetry: Optional[Telemetry] = None,
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = chrome_trace(spans, metadata, telemetry=telemetry)
    path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    return path


# -- the Fig. 4 residency Gantt ----------------------------------------------------


def region_timeline(spans: Sequence[Span]) -> dict[str, dict[str, list]]:
    """Per-region residency and load intervals from sim-clock spans.

    Returns ``{region: {"resident": [(module, start, end)], "loads":
    [(module, start, end, kind)]}}`` where ``kind`` is ``load`` (a demand
    load; the fixed-latency executive service calls it ``reconfig``) or
    ``prefetch``.  Only ``clock="sim"`` spans carrying a ``region``
    attribute participate.
    """
    out: dict[str, dict[str, list]] = {}
    for span in spans:
        if span.clock != "sim":
            continue
        region = span.attributes.get("region")
        kind = span.attributes.get("kind")
        if not region or kind not in ("resident", "load", "reconfig", "prefetch"):
            continue
        entry = out.setdefault(str(region), {"resident": [], "loads": []})
        module = str(span.attributes.get("module", span.attributes.get("detail", "?")))
        if kind == "resident":
            entry["resident"].append((module, span.start_ns, span.end_ns))
        else:
            entry["loads"].append((module, span.start_ns, span.end_ns, kind))
    for entry in out.values():
        entry["resident"].sort(key=lambda item: item[1])
        entry["loads"].sort(key=lambda item: item[1])
    return out


def _t_end(timeline: Mapping[str, Mapping[str, list]]) -> int:
    ends = [iv[2] for entry in timeline.values() for iv in entry["resident"]]
    ends += [iv[2] for entry in timeline.values() for iv in entry["loads"]]
    return max(ends, default=1) or 1


def _module_glyphs(timeline: Mapping[str, Mapping[str, list]]) -> dict[str, str]:
    modules = sorted(
        {iv[0] for entry in timeline.values() for iv in entry["resident"]}
        | {iv[0] for entry in timeline.values() for iv in entry["loads"]}
    )
    glyphs = "abcdefghijklmnopqrstuvwxyz"
    return {module: glyphs[i % len(glyphs)] for i, module in enumerate(modules)}


def render_region_gantt(spans: Sequence[Span], width: int = 72) -> str:
    """ASCII module-residency chart, one row per dynamic region.

    Lower-case letters mark the resident module, upper-case the interval a
    (re)configuration is in flight (demand loads) and ``*`` a prefetch load.
    """
    timeline = region_timeline(spans)
    if not timeline:
        return "(no region residency spans in trace)"
    t_end = _t_end(timeline)
    glyph = _module_glyphs(timeline)

    def col(t: int) -> int:
        return min(width - 1, t * width // t_end)

    rows = []
    for region in sorted(timeline):
        line = ["."] * width
        for module, start, end in timeline[region]["resident"]:
            for i in range(col(start), max(col(start), col(end) - 1) + 1):
                line[i] = glyph[module]
        for module, start, end, kind in timeline[region]["loads"]:
            mark = "*" if kind == "prefetch" else glyph[module].upper()
            for i in range(col(start), max(col(start), col(end) - 1) + 1):
                line[i] = mark
        rows.append(f"{region:>12} |{''.join(line)}|")
    legend = "  ".join(f"{g}={m}" for m, g in sorted(glyph.items(), key=lambda kv: kv[1]))
    rows.append(f"{'':>12}  {legend}  UPPER=loading  *=prefetch  .=empty  (t_end={t_end} ns)")
    return "\n".join(rows)


#: Deterministic fill palette for the SVG Gantt (cycled per module).
_SVG_COLORS = ("#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1", "#76b7b2")


def render_region_gantt_svg(spans: Sequence[Span], width_px: int = 900, row_px: int = 28) -> str:
    """The residency chart as a standalone SVG document."""
    timeline = region_timeline(spans)
    regions = sorted(timeline)
    t_end = _t_end(timeline)
    modules = sorted(_module_glyphs(timeline))
    color = {module: _SVG_COLORS[i % len(_SVG_COLORS)] for i, module in enumerate(modules)}
    label_px, pad = 110, 8
    chart_w = width_px - label_px - pad
    height = (len(regions) + 1) * (row_px + pad) + pad

    def x(t: int) -> float:
        return label_px + chart_w * t / t_end

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" height="{height}" '
        f'font-family="monospace" font-size="12">',
        f'<rect width="{width_px}" height="{height}" fill="white"/>',
    ]
    for row, region in enumerate(regions):
        y = pad + row * (row_px + pad)
        parts.append(f'<text x="4" y="{y + row_px / 2 + 4}">{region}</text>')
        for module, start, end in timeline[region]["resident"]:
            w = max(1.0, x(end) - x(start))
            parts.append(
                f'<rect x="{x(start):.1f}" y="{y}" width="{w:.1f}" height="{row_px}" '
                f'fill="{color[module]}" fill-opacity="0.75"><title>{module} '
                f"[{start}-{end} ns]</title></rect>"
            )
        for module, start, end, kind in timeline[region]["loads"]:
            w = max(1.0, x(end) - x(start))
            hatch = "#999" if kind == "prefetch" else "#333"
            parts.append(
                f'<rect x="{x(start):.1f}" y="{y + row_px - 6}" width="{w:.1f}" height="6" '
                f'fill="{hatch}"><title>{kind} {module} [{start}-{end} ns]</title></rect>'
            )
    legend_y = pad + len(regions) * (row_px + pad) + 12
    lx = label_px
    for module in modules:
        parts.append(f'<rect x="{lx}" y="{legend_y}" width="12" height="12" fill="{color[module]}"/>')
        parts.append(f'<text x="{lx + 16}" y="{legend_y + 11}">{module}</text>')
        lx += 16 + 8 * len(module) + 24
    parts.append(f'<text x="4" y="{legend_y + 11}">t_end={t_end}ns</text>')
    parts.append("</svg>")
    return "\n".join(parts)


# -- run manifests -----------------------------------------------------------------


def _git_revision() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5.0, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def build_manifest(
    argv: Optional[Sequence[str]] = None,
    seed: Optional[int] = None,
    metrics: Optional[Mapping[str, Any]] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> dict:
    """A JSON-safe description of the run that produced a trace."""
    manifest: dict[str, Any] = {
        "argv": list(argv if argv is not None else sys.argv),
        "git_revision": _git_revision(),
        "python": sys.version.split()[0],
        "seed": seed,
        "created_unix_s": int(time.time()),
        "metrics": dict(metrics) if metrics is not None else {},
    }
    if extra:
        manifest.update(extra)
    return manifest


def manifest_path_for(trace_path: "str | Path") -> Path:
    """``out.json`` → ``out.manifest.json`` (sibling of the trace file)."""
    trace_path = Path(trace_path)
    return trace_path.with_name(trace_path.stem + ".manifest.json")


def write_manifest(path: "str | Path", manifest: Mapping[str, Any]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    return path
