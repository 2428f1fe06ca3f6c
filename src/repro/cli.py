"""Command-line interface.

Runs the paper's case study through the flow without writing any code::

    python -m repro flow                         # full flow report
    python -m repro table1                       # regenerate Table 1
    python -m repro macrocode                    # the synchronized executive
    python -m repro vhdl --out build/            # write VHDL + testbenches + UCF
    python -m repro simulate -n 32 --pattern step --policy history
    python -m repro sweep --jobs 4 --timeout 120 # parallel design-space sweep
    python -m repro linklevel --snr 0:10:2 --frames 200 --jobs 4
    python -m repro fleet --boards 100 --requests 200 --policy none,fixed,lru
    python -m repro fleet --live --telemetry fleet.jsonl --slo-hit-floor 0.4
    python -m repro tail fleet.jsonl                # replay a telemetry stream
    python -m repro search --groups 3 --budget 300 --seed 1 --trace search.json
    python -m repro bench-check --backfill          # benchmark regression gate

One output contract: a handler returns a :class:`_Result` and
:func:`_dispatch` alone prints it.  Status lines go to stdout in text mode
and to stderr under ``--json``, so that stdout holds the text or one JSON
document.  Exit codes: 0 ok, 1 work that failed, 2 bad input, 3 an SLO
breach.  Importing this module loads no ``repro`` layer: each handler
imports what it runs, so ``repro --help`` costs little more than Python.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from contextlib import ExitStack, contextmanager
from typing import NamedTuple, Optional, Sequence

__all__ = ["main", "build_parser"]

CASE_STUDY_CONSTRAINTS = """
[module mod_qpsk]
region    = D1
operation = mod_qpsk

[module mod_qam16]
region    = D1
operation = mod_qam16

[region D1]
sharing   = true
exclusive = mod_qpsk, mod_qam16
"""

# Parser choices are static, so that building the parser loads no layer;
# tests/test_cli.py holds each one equal to the registry it mirrors.
#: CLI name -> constructor in ``repro.reconfig`` of that Fig. 2 architecture
#: (and the ``name`` of the architecture it builds).
_ARCHITECTURES = {"case_a": "case_a_standalone", "case_b": "case_b_processor"}
#: ``repro.runtime.policy_names()``: every registered policy bundle.
_POLICIES = (
    "belady", "confidence", "fixed", "history", "lfu", "lru", "markov", "none", "on_select",
)
#: The bundles that need the whole demand schedule up front.
_CLAIRVOYANT = ("belady",)
_ONLINE_POLICIES = tuple(name for name in _POLICIES if name not in _CLAIRVOYANT)
_ENGINES = ("fast", "kernel")
_TRAFFIC_PATTERNS = ("poisson", "diurnal", "thrash")


class _Result(NamedTuple):
    """A handler's exit code, text, ``--json`` document, and a status line
    that follows them (the regression count)."""

    code: int
    text: Optional[str] = None
    doc: object = None
    note: Optional[str] = None


class _BadInput(Exception):
    """A flag value or input file the command cannot use: ``error:``, exit 2."""


@contextmanager
def _bad_input(*errors: type):
    """Build configuration objects from flag values; their errors are bad input.

    Catches ``errors``, by default the library's ``ValueError`` (or the
    ``KeyError`` of a catalogue lookup).  Wrap only the building, never the
    work itself, or a real bug would read as bad input.
    """
    try:
        yield
    except (errors or (ValueError, KeyError)) as err:
        raise _BadInput(err.args[0] if isinstance(err, KeyError) else err) from None


def _policy_names(value: str, fleet: bool = False):
    """Argparse type: registry policy names, validated at parse time.

    The fleet takes a comma-separated list of any registered names.  The
    other drivers take one name and generate demands on the fly, so a
    clairvoyant bundle (Belady), which needs the full demand schedule up
    front, is rejected here rather than deep inside a worker process.
    """
    names = [name.strip() for name in value.split(",") if name.strip()] if fleet else [value]
    if not names:
        raise argparse.ArgumentTypeError("empty policy list")
    for name in names:
        if name not in _POLICIES:
            raise argparse.ArgumentTypeError(
                f"unknown policy {name!r}; known policies: {', '.join(_POLICIES)}"
            )
        if name in _CLAIRVOYANT and not fleet:
            raise argparse.ArgumentTypeError(
                f"policy {name!r} is clairvoyant (needs the full demand schedule) "
                f"and only works with the fleet driver; pick one of: {', '.join(_ONLINE_POLICIES)}"
            )
    return names if fleet else value


def _architecture(name: str):
    """The Fig. 2 reconfiguration architecture a CLI name selects."""
    from repro.reconfig import architectures

    return getattr(architectures, _ARCHITECTURES[name])()


def _run_flow(args) -> "tuple":
    from repro.flows import DesignFlow, parse_constraints
    from repro.mccdma.casestudy import build_mccdma_design

    design = build_mccdma_design()
    flow = DesignFlow.from_design(
        design,
        dynamic_constraints=parse_constraints(CASE_STUDY_CONSTRAINTS),
        reconfig_architecture=_architecture(args.architecture),
        prefetch=not getattr(args, "reactive", False),
    )
    flow.mapping.pin("bit_src", "DSP").pin("select", "DSP")
    return design, flow.run()


def _cmd_flow(args, status) -> _Result:
    _, result = _run_flow(args)
    return _Result(0, result.report(), result.to_dict())


def _cmd_table1(args, status) -> _Result:
    from repro.flows import table1_report

    design, result = _run_flow(args)
    return _Result(0, table1_report(design.library, flow=result))


def _cmd_macrocode(args, status) -> _Result:
    _, result = _run_flow(args)
    return _Result(0, result.executive.render())


def _cmd_dump(args, status) -> _Result:
    """``graph-dump`` and ``board-dump``: the case study's two input graphs."""
    if args.command == "graph-dump":
        from repro.dfg.io import dumps
        from repro.mccdma.casestudy import build_mccdma_graph as build
    else:
        from repro.arch.boards import sundance_board as build
        from repro.arch.io import dumps

    text = dumps(build())
    if not args.out:
        return _Result(0, text)
    pathlib.Path(args.out).write_text(text)
    return _Result(0, f"wrote {args.out}")


def _cmd_export(args, status) -> _Result:
    from repro.flows.export import export_build_directory

    _, result = _run_flow(args)
    written = export_build_directory(result, args.out)
    lines = [f"wrote {path}" for path in written]
    lines.append(f"{len(written)} artefacts under {args.out}")
    return _Result(0, "\n".join(lines))


def _cmd_vhdl(args, status) -> _Result:
    from repro.codegen.testbench import generate_all_testbenches

    target = pathlib.Path(args.out)
    target.mkdir(parents=True, exist_ok=True)
    _, result = _run_flow(args)
    files = dict(result.generated.files)
    files.update(generate_all_testbenches(result.generated.files))
    files["top.ucf"] = result.modular.ucf
    lines = []
    for name, text in sorted(files.items()):
        (target / name).write_text(text)
        lines.append(f"wrote {target / name}")
    return _Result(0, "\n".join(lines))


def _cmd_sweep(args, status) -> _Result:
    import dataclasses

    from repro.exec.engine import ParallelSweepEngine
    from repro.fabric.device import device_by_name
    from repro.flows import parse_constraints
    from repro.flows.designspace import design_point_from_payload, sweep_jobs_for_grid
    from repro.mccdma.casestudy import build_mccdma_design

    design = build_mccdma_design()
    names = [name.strip() for name in args.sweep_architectures.split(",")]
    with _bad_input():
        devices = tuple(device_by_name(name.strip()) for name in args.devices.split(","))
        unknown = [name for name in names if name not in _ARCHITECTURES]
        if unknown:
            raise _BadInput(
                f"unknown architecture(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(_ARCHITECTURES))}"
            )
        engine = ParallelSweepEngine(
            jobs=args.jobs,
            timeout_s=args.timeout,
            retries=args.retries,
            cache_dir=args.cache_dir,
            sweep_name=f"designspace:{design.graph.name}",
        )
    jobs = sweep_jobs_for_grid(
        design.graph,
        design.library,
        devices=devices,
        architectures=tuple(_architecture(name) for name in names),
        dynamic_constraints=parse_constraints(CASE_STUDY_CONSTRAINTS),
        pins=(("bit_src", "DSP"), ("select", "DSP")),
        prefetch=not args.reactive,
    )
    if args.trace or args.simulate_iterations:
        # A traced sweep should show real reconfiguration activity, so each
        # fitting point also runs a short system simulation in its worker.
        n_iter = args.simulate_iterations or 8
        jobs = [
            dataclasses.replace(
                job, simulate_iterations=n_iter, simulate_policy=args.simulate_policy
            )
            for job in jobs
        ]
    with engine:
        report = engine.run(jobs)
    points = [design_point_from_payload(result).render() for result in report.results]
    doc = report.to_dict()
    doc["points"] = points
    return _Result(1 if report.failed else 0, "\n".join([*points, report.summary()]), doc)


def _make_snr(pattern: str, n: int):
    from repro.mccdma import SnrTrace

    if pattern == "step":
        return SnrTrace.step(low_db=8.0, high_db=22.0, period=max(1, n // 4), n=n)
    if pattern == "walk":
        return SnrTrace.random_walk(start_db=14.0, step_db=1.2, n=n, seed=0)
    if pattern == "sinus":
        return SnrTrace.sinusoid(mean_db=14.0, amplitude_db=6.0, period=max(2, n // 3), n=n)
    raise ValueError(f"unknown SNR pattern {pattern!r}")


def _simulate(args) -> "tuple":
    """The case-study flow, then ``--iterations`` runtime iterations on real
    MC-CDMA data: what ``simulate`` and ``trace`` share."""
    from repro.flows import SystemSimulation
    from repro.mccdma.bindings import make_case_study_bindings
    from repro.obs import NOOP_TRACER, get_tracer, use_tracer

    with _bad_input():
        state = make_case_study_bindings(_make_snr(args.pattern, args.iterations), seed=args.seed)
    _, result = _run_flow(args)
    # Only a --trace file reads the kernel's spans: for --profile and
    # --log-json the simulation runs untraced, as it does without them.
    with use_tracer(get_tracer() if args.trace else NOOP_TRACER):
        runtime = SystemSimulation(
            result,
            n_iterations=args.iterations,
            bindings=state.bindings,
            policy=args.policy,  # registry name; SystemSimulation resolves it
            capture={"dac"},
        ).run()
    return state, runtime


def _cmd_simulate(args, status) -> _Result:
    state, runtime = _simulate(args)
    lines = [runtime.summary(), f"modulation plan: {', '.join(m.value for m in state.selected)}"]
    if args.gantt:
        lines.append(runtime.execution.trace.gantt(width=72))
    return _Result(0, "\n".join(lines))


def _parse_snr_grid(spec: str) -> list[float]:
    """SNR grid: ``start:stop:step`` (stop inclusive) or ``v1,v2,...``."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"SNR range must be start:stop:step, got {spec!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("SNR range step must be positive")
        points = []
        value = start
        while value <= stop + 1e-9:
            points.append(round(value, 9))
            value += step
        return points
    return [float(p) for p in spec.split(",") if p.strip()]


def _cmd_linklevel(args, status) -> _Result:
    from repro.exec.engine import ParallelSweepEngine
    from repro.mccdma.engine import LinkEngineConfig, LinkSimulationEngine
    from repro.mccdma.transmitter import MCCDMAConfig

    strategies = [name.strip() for name in args.strategies.split(",") if name.strip()]
    with _bad_input():
        snr_points = _parse_snr_grid(args.snr)
        if not snr_points:
            raise _BadInput("empty SNR grid")
        unknown = [s for s in strategies if s not in ("qpsk", "qam16", "adaptive")]
        if unknown:
            raise _BadInput(f"unknown strategy(ies) {', '.join(unknown)}")
        engine = LinkSimulationEngine(
            config=MCCDMAConfig(user_codes=tuple(range(args.users))),
            engine=LinkEngineConfig(
                batch_frames=args.batch,
                batched=not args.reference,
                ci_halfwidth=args.ci_halfwidth,
            ),
        )
        curves = {
            strategy: engine.point_jobs(strategy, snr_points, args.frames, seed=args.seed)
            for strategy in strategies
        }
        # Each curve builds its own sweep engine; this one, which starts no
        # worker, checks --jobs and --timeout before any pool or point does.
        ParallelSweepEngine(jobs=args.jobs, timeout_s=args.timeout)
    report: dict[str, list[dict]] = {}
    with ExitStack() as stack:
        pool = None
        if args.jobs > 0 and len(strategies) > 1:
            # One warm pool serves every strategy's curve: workers spawn
            # and import once, not once per --strategy.
            from repro.exec.pool import WorkerPool

            pool = stack.enter_context(WorkerPool(args.jobs, name="linklevel"))
        for strategy, point_jobs in curves.items():
            results = engine.run_points(
                point_jobs, jobs=args.jobs, timeout_s=args.timeout, pool=pool
            )
            report[strategy] = [
                {"snr_db": snr, **result.to_dict(), "ber": result.ber}
                for snr, result in zip(snr_points, results)
            ]
    lines = []
    for strategy in strategies:
        lines.append(f"{strategy}:")
        for row in report[strategy]:
            lines.append(
                f"  snr {row['snr_db']:+6.2f} dB  ber {row['ber']:.3e}  "
                f"frames {row['n_frames']:4d}  goodput "
                f"{row['delivered_bits'] / max(row['n_frames'], 1):.1f} bits/frame"
            )
    return _Result(0, "\n".join(lines), report)


def _cmd_trace(args, status) -> _Result:
    """Traced case-study run producing the paper's Fig. 4 residency view."""
    from repro.obs import get_tracer, render_region_gantt, render_region_gantt_svg

    _, runtime = _simulate(args)
    spans = get_tracer().spans
    lines = [runtime.summary(), render_region_gantt(spans)]
    if args.svg:
        svg_path = pathlib.Path(args.svg)
        svg_path.parent.mkdir(parents=True, exist_ok=True)
        svg_path.write_text(render_region_gantt_svg(spans), encoding="utf-8")
        lines.append(f"wrote {svg_path}")
    return _Result(0, "\n".join(lines))


def _cmd_check_trace(args, status) -> _Result:
    """``trace --check PATH``: validate an existing Chrome trace file (span
    parent chain, phase vocabulary, timestamps); exit 1 on errors."""
    from repro.obs import validate_trace_file

    errors = validate_trace_file(args.check)
    if errors:
        lines = [f"INVALID: {error}" for error in errors]
        lines.append(f"{args.check}: {len(errors)} error(s)")
        return _Result(1, "\n".join(lines))
    return _Result(0, f"{args.check}: OK")


def _cmd_search(args, status) -> _Result:
    """Annealed partition/schedule/floorplan co-optimization vs fixed sweep."""
    from repro.dfg.generators import multiregion_graph
    from repro.dfg.library import default_library
    from repro.fabric.device import device_by_name
    from repro.flows.designspace import search_multiregion_space
    from repro.obs import get_telemetry
    from repro.search import SearchConfig, SearchSpace

    with _bad_input():
        device = device_by_name(args.device)
        graph = multiregion_graph(n_groups=args.groups, alternatives=args.alternatives)
        config = SearchConfig(budget=args.budget, seed=args.seed, restarts=args.restarts)
        space = SearchSpace(graph, default_library(), device=device, max_regions=args.max_regions)
    report = search_multiregion_space(
        space, config, architecture=_architecture(args.architecture), method=args.method
    )
    hub = get_telemetry()
    if hub is not None:
        result = report.result
        totals = hub.store("run")
        totals.counter_add("search.evaluations", 0, result.evaluations)
        totals.counter_add("search.pruned", 0, result.pruned)
        totals.counter_add("search.accepted", 0, result.accepted)
        totals.counter_add("search.improved", 0, result.improved)
        totals.gauge_set("search.best_total_ns", 0, result.best_cost.total_ns)
        totals.gauge_set("search.best_makespan_ns", 0, result.best_cost.makespan_ns)
        totals.gauge_set("search.violations", 0, len(result.best_cost.violations))
    return _Result(0, report.render(), report.to_dict())


def _fleet_slo_rules(args) -> list:
    """Declarative fleet SLOs from the --slo-* flags (empty = no monitor)."""
    from repro.obs.telemetry import SloRule

    rules = []
    if getattr(args, "slo_hit_floor", None) is not None:
        rules.append(
            SloRule(
                name="hit-rate-floor",
                series="fleet.hits",
                kind="floor",
                threshold=args.slo_hit_floor,
                denominator="fleet.demands",
                min_count=getattr(args, "slo_min_count", 1),
            )
        )
    if getattr(args, "slo_p99_ceiling", None) is not None:
        rules.append(
            SloRule(
                name="stall-p99-ceiling",
                series="fleet.stall_ns",
                kind="ceiling",
                threshold=args.slo_p99_ceiling,
                quantile=0.99,
                min_count=getattr(args, "slo_min_count", 1),
            )
        )
    return rules


def _redraw(stream, text: str) -> None:
    """Repaint a live dashboard: clear-screen only when ``stream`` is a tty."""
    if getattr(stream, "isatty", lambda: False)():
        print("\x1b[2J\x1b[H", end="", file=stream)
    print(text, file=stream)


def _cmd_fleet(args, status) -> _Result:
    """Multiplex a fleet of boards on one kernel; frontier across policies."""
    import dataclasses

    from repro.obs import get_telemetry, get_tracer
    from repro.runtime import FleetConfig, generate_fleet_schedules, run_fleet

    tracer = get_tracer()
    # With --trace, record a few boards' full kernel traces so Perfetto
    # shows one lane per board; tracing the whole fleet would dominate RAM
    # (traced boards run through the reference kernel under either engine).
    trace_boards = args.trace_boards
    if trace_boards is None:
        trace_boards = 3 if args.trace else 0
    with _bad_input():
        base = FleetConfig(
            n_boards=args.boards,
            requests_per_board=args.requests,
            traffic=args.traffic,
            seed=args.seed,
            regions=args.regions,
            modules_per_region=args.modules,
            region_slots=args.slots,
            architecture=_ARCHITECTURES[args.architecture],
            mean_gap_ns=args.mean_gap,
            trace_boards=trace_boards,
            engine=args.engine,
        )
        if args.telemetry_window < 1:
            raise _BadInput(f"telemetry_window must be >= 1, got {args.telemetry_window}")
    if args.telemetry is not None:
        telemetry_path = pathlib.Path(args.telemetry)
        telemetry_path.parent.mkdir(parents=True, exist_ok=True)
    # One traffic-generation pass serves every policy: schedules depend
    # only on (seed, board_id, traffic).
    schedules = generate_fleet_schedules(base)
    store = monitor = None
    slo_rules = _fleet_slo_rules(args)
    hub = get_telemetry()
    if hub is not None:
        # an installed hub (--trace) gets the fleet's sim-clock series too
        store = hub.store("sim", window=args.telemetry_window)
    elif args.live or args.telemetry is not None or slo_rules:
        from repro.obs.telemetry import TimeSeriesStore

        store = TimeSeriesStore(window=args.telemetry_window, clock="sim")
    if store is not None:
        from repro.obs.dashboard import render_dashboard
        from repro.obs.telemetry import SloMonitor

        monitor = SloMonitor(store, slo_rules)
    breaches: list = []
    reports = {}
    for name in args.policy:
        config = dataclasses.replace(base, policy=name)
        with tracer.span(f"fleet:{name}") as span:
            report = run_fleet(config, schedules=schedules, telemetry=store)
        if tracer.enabled:
            span.set_attribute("boards", report.n_boards)
            span.set_attribute("requests", report.total_requests)
            span.set_attribute("hit_rate", report.hit_rate)
            # The boards' traces were created inside this span: their
            # sim-clock spans already parent under it.
            for board_trace in report.traces:
                tracer.add_spans(board_trace.spans)
        if hub is not None:
            totals = hub.store("run")
            for key, count in report.totals.items():
                totals.counter_add(f"fleet.{name}.{key}", 0, count)
            totals.counter_add(f"fleet.{name}.total_requests", 0, report.total_requests)
            totals.gauge_set(f"fleet.{name}.boards", 0, report.n_boards)
            totals.gauge_set(f"fleet.{name}.end_time_ns", 0, report.end_time_ns)
        reports[name] = report
        if monitor is not None:
            breaches.extend(monitor.evaluate())
        if args.live:
            _redraw(
                status,
                render_dashboard(
                    store,
                    last=args.live_windows,
                    breaches=breaches,
                    title=f"fleet {len(reports)}/{len(args.policy)} policies "
                    f"({args.boards} boards x {args.requests} req)",
                    ascii_only=args.ascii,
                ),
            )
    if args.telemetry is not None:
        rows = store.write_jsonl(telemetry_path)
        print(f"wrote telemetry {telemetry_path} ({rows} rows)", file=status)
    doc = {name: report.to_dict() for name, report in reports.items()}
    lines = [report.summary() for report in reports.values()]
    lines += ["", f"{'policy':12s} {'hit rate':>9s} {'mean stall':>12s} {'req/s':>12s} {'digest':>12s}"]
    for name, report in reports.items():
        lines.append(
            f"{name:12s} {report.hit_rate:9.1%} {report.mean_stall_ns / 1e3:10.1f}us "
            f"{report.requests_per_sec:12,.0f} {report.digest()[:12]:>12s}"
        )
    if monitor is not None and monitor.rules:
        doc["slo_breaches"] = [breach.to_dict() for breach in breaches]
        if breaches:
            lines += ["", *(f"SLO BREACH: {breach.describe()}" for breach in breaches)]
            lines.append(f"{len(breaches)} SLO breach(es)")
        else:
            lines.append(f"SLO: {len(monitor.rules)} rule(s), no breaches")
    return _Result(3 if breaches else 0, "\n".join(lines), doc)


def _cmd_tail(args, status) -> _Result:
    """Render a telemetry JSONL stream as the fleet dashboard.

    One-shot by default (read, render, exit — safe for CI and pipes);
    ``--follow`` re-reads and repaints whenever the file grows, the
    ``top``-style view of a run writing telemetry elsewhere.
    """
    import time

    from repro.obs.dashboard import render_dashboard
    from repro.obs.telemetry import SloMonitor, TimeSeriesStore

    if args.follow and args.interval < 0:
        raise _BadInput(f"interval must be >= 0, got {args.interval:g}")
    path = pathlib.Path(args.path)
    last_size = -1
    while True:
        try:
            size = path.stat().st_size
        except OSError:
            if not args.follow:
                raise _BadInput(f"cannot read {path}") from None
            size = -1
        if size != last_size and size >= 0:
            last_size = size
            try:
                store = TimeSeriesStore.read_jsonl(path)
            except ValueError as err:
                raise _BadInput(f"{path}: {err}") from None
            breaches = SloMonitor(store, _fleet_slo_rules(args)).evaluate()
            _redraw(
                status,
                render_dashboard(
                    store,
                    last=args.live_windows,
                    breaches=breaches,
                    title=str(path),
                    ascii_only=args.ascii,
                ),
            )
        if not args.follow:
            return _Result(0)
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            return _Result(0)


def _cmd_bench_check(args, status) -> _Result:
    """The benchmark-history regression gate (and its --backfill mode)."""
    import dataclasses

    from repro.obs.history import DEFAULT_HISTORY_PATH, HistoryError, backfill, bench_check

    history_path = pathlib.Path(args.history) if args.history else DEFAULT_HISTORY_PATH
    with _bad_input(HistoryError):
        if args.backfill:
            entries = backfill(args.results_dir, history_path)
            print(f"backfilled {len(entries)} entries into {history_path}", file=status)
            if not args.check_after_backfill:
                return _Result(0, None, [entry.to_dict() for entry in entries])
        results = bench_check(
            history_path,
            threshold_pct=args.threshold,
            trailing=args.trailing,
            benches=args.bench or None,
        )
    lines = [result.describe() for result in results]
    regressions = sum(1 for result in results if result.status == "regression")
    return _Result(
        1 if regressions else 0,
        "\n".join(lines or [f"{history_path}: no history entries to check"]),
        [dataclasses.asdict(result) for result in results],
        f"{regressions} regression(s) beyond {args.threshold:g}%" if regressions else None,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Top-down design flow for partial/dynamic FPGA reconfiguration "
        "(Berthelot et al., IPDPS 2006) — case-study driver.",
    )
    parser.add_argument(
        "--architecture", choices=sorted(_ARCHITECTURES), default="case_a",
        help="Fig. 2 reconfiguration architecture (default: case_a, standalone ICAP)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print the per-stage pipeline profile (wall time, cache hits) before the output",
    )
    parser.add_argument(
        "--log-json", metavar="PATH", default=None,
        help="append one JSON line per recorded row (pipeline stage, sweep step, "
        "link batch) to PATH when the command ends",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a span trace of the whole run and write Chrome trace-event "
        "JSON (Perfetto-loadable) to PATH, plus a sibling .manifest.json",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, profile=None, json_help=None):
        """A subcommand: its handler, its ``--profile`` table layout (None,
        "rows" or "aggregate") and, given its help text, its ``--json`` flag."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, profile_view=profile, json=False)
        if json_help is not None:
            p.add_argument("--json", action="store_true", help=json_help)
        return p

    command(
        "flow", _cmd_flow, "run the full design flow and print the report", "rows",
        json_help="emit the flow result as JSON (FlowResult.to_dict()) instead of the text report",
    )
    command("table1", _cmd_table1, "regenerate the paper's Table 1", "rows")
    command("macrocode", _cmd_macrocode, "print the synchronized executive", "rows")

    p_gd = command("graph-dump", _cmd_dump, "serialize the case-study algorithm graph")
    p_gd.add_argument("--out", default=None, help="output file (default: stdout)")
    p_bd = command("board-dump", _cmd_dump, "serialize the Sundance board description")
    p_bd.add_argument("--out", default=None, help="output file (default: stdout)")

    p_vhdl = command("vhdl", _cmd_vhdl, "write generated VHDL, testbenches and UCF", "rows")
    p_vhdl.add_argument("--out", required=True, help="output directory")

    p_exp = command(
        "export", _cmd_export,
        "write the complete build directory (HDL, UCF, executive, bitstreams, reports)", "rows",
    )
    p_exp.add_argument("--out", required=True, help="output directory")

    p_sweep = command(
        "sweep", _cmd_sweep,
        "parallel design-space sweep of the case study over devices x architectures",
        "aggregate", json_help="emit the sweep report as JSON instead of the point table",
    )
    p_sweep.add_argument(
        "--jobs", type=int, default=2,
        help="worker processes (0 = serial in-process; default: 2)",
    )
    p_sweep.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-job timeout in seconds (a hung worker fails only its job)",
    )
    p_sweep.add_argument(
        "--retries", type=int, default=1, metavar="K",
        help="retries per job before it is reported failed (default: 1)",
    )
    p_sweep.add_argument(
        "--devices", default="xc2v1000,xc2v2000,xc2v3000",
        help="comma-separated Virtex-II parts (default: the stock 3-device grid)",
    )
    p_sweep.add_argument(
        "--architectures", dest="sweep_architectures", default="case_a,case_b",
        help="comma-separated Fig. 2 architectures (default: case_a,case_b)",
    )
    p_sweep.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="shared on-disk artifact cache for all workers (kept across runs)",
    )
    p_sweep.add_argument("--reactive", action="store_true", help="reconfiguration-blind executive")
    p_sweep.add_argument(
        "--simulate-iterations", type=int, default=0, metavar="N",
        help="run an N-iteration system simulation after each fitting point "
        "(default: 0; --trace implies 8 so traces show reconfiguration spans)",
    )
    p_sweep.add_argument(
        "--simulate-policy", type=_policy_names, default="on_select",
        metavar="POLICY",
        help="policy-registry name for the per-point simulations "
        f"(default: on_select; known: {', '.join(_ONLINE_POLICIES)})",
    )

    p_link = command(
        "linklevel", _cmd_linklevel,
        "batched Monte-Carlo BER/goodput sweep of the MC-CDMA link", "rows",
        json_help="emit results as JSON",
    )
    p_link.add_argument(
        "--snr", default="-2:10:2",
        help="SNR grid in dB: start:stop:step (inclusive) or comma list (default: -2:10:2)",
    )
    p_link.add_argument(
        "--strategies", default="qpsk,qam16,adaptive",
        help="comma-separated strategies to sweep (default: all three)",
    )
    p_link.add_argument("--frames", type=int, default=200, help="frames per SNR point")
    p_link.add_argument("--users", type=int, default=1, help="active Walsh-code users")
    p_link.add_argument(
        "--batch", type=int, default=64,
        help="frames per vectorized batch (and early-stop check; default: 64)",
    )
    p_link.add_argument(
        "--jobs", type=int, default=0,
        help="worker processes sharding SNR points (0 = serial in-process)",
    )
    p_link.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-point timeout in seconds when sharded",
    )
    p_link.add_argument("--seed", type=int, default=0)
    p_link.add_argument(
        "--ci-halfwidth", type=float, default=None, metavar="W",
        help="early-stop a point once the 95%% Wilson half-width on BER drops below W",
    )
    p_link.add_argument(
        "--reference", action="store_true",
        help="use the per-frame reference path instead of the batched kernels",
    )

    p_sim = command(
        "simulate", _cmd_simulate, "runtime simulation with real MC-CDMA data", "rows"
    )
    _add_simulation_args(p_sim, policy="none")
    p_sim.add_argument("--gantt", action="store_true", help="print an ASCII Gantt chart")

    p_trace = command(
        "trace", _cmd_trace,
        "traced flow + runtime simulation with the Fig. 4 region-residency "
        "Gantt, or --check to validate an existing trace file", "rows",
    )
    # SUPPRESS keeps a missing --out from overwriting the global --trace
    # PATH (a subparser's defaults land on the shared namespace).
    p_trace.add_argument(
        "--out", dest="trace", metavar="PATH", default=argparse.SUPPRESS,
        help="Chrome trace-event output path (default: the global --trace "
        "PATH, else trace.json)",
    )
    p_trace.add_argument(
        "--svg", metavar="PATH", default=None,
        help="also write the region-residency Gantt as an SVG document",
    )
    p_trace.add_argument(
        "--check", metavar="PATH", default=None,
        help="validate an existing Chrome trace file instead of running anything",
    )
    _add_simulation_args(p_trace, policy="on_select")

    p_search = command(
        "search", _cmd_search,
        "co-optimize partitioning, region count and floorplan by "
        "simulated annealing; report the fixed-sweep frontier alongside",
        "aggregate", json_help="emit the report as JSON",
    )
    p_search.add_argument(
        "--method", choices=("anneal", "greedy", "random"), default="anneal",
        help="search driver (default: anneal)",
    )
    p_search.add_argument(
        "--budget", type=int, default=400,
        help="evaluation budget across all restarts (default: 400)",
    )
    p_search.add_argument("--seed", type=int, default=0, help="root SeedSequence seed")
    p_search.add_argument(
        "--restarts", type=int, default=2,
        help="independent restarts sharing the budget (default: 2)",
    )
    p_search.add_argument(
        "--groups", type=int, default=2,
        help="condition groups in the generated workload (default: 2)",
    )
    p_search.add_argument(
        "--alternatives", type=int, default=2,
        help="mutually-exclusive alternatives per group (default: 2)",
    )
    p_search.add_argument(
        "--max-regions", type=int, default=None,
        help="cap on dynamic regions (default: min(conditioned ops, 4))",
    )
    p_search.add_argument(
        "--device", default="xc2v2000",
        help="Virtex-II part hosting the regions (default: xc2v2000)",
    )

    p_fleet = command(
        "fleet", _cmd_fleet,
        "multiplex a fleet of boards on one event kernel and compare "
        "management policies (hit-rate / stall frontier)",
        json_help="emit reports as JSON",
    )
    p_fleet.add_argument("--boards", type=int, default=100, help="boards in the fleet")
    p_fleet.add_argument("--requests", type=int, default=200, help="requests per board")
    p_fleet.add_argument(
        "--policy", type=lambda value: _policy_names(value, fleet=True),
        default=["none", "fixed", "history"], metavar="P1,P2,...",
        help="comma-separated policy-registry names to frontier "
        f"(known: {', '.join(_POLICIES)})",
    )
    p_fleet.add_argument("--traffic", choices=_TRAFFIC_PATTERNS, default="poisson")
    p_fleet.add_argument("--seed", type=int, default=0)
    p_fleet.add_argument("--regions", type=int, default=2, help="dynamic regions per board")
    p_fleet.add_argument("--modules", type=int, default=4, help="modules per region")
    p_fleet.add_argument(
        "--slots", type=int, default=None,
        help="override each policy bundle's region area budget (module slots)",
    )
    p_fleet.add_argument(
        "--mean-gap", type=int, default=200_000, metavar="NS",
        help="mean inter-request gap in virtual ns (default: 200000)",
    )
    p_fleet.add_argument(
        "--trace-boards", type=int, default=None, metavar="N",
        help="record full kernel traces for the first N boards "
        "(default: 3 when --trace is active, else 0)",
    )
    p_fleet.add_argument(
        "--engine", choices=_ENGINES, default="fast",
        help="fleet engine: 'fast' (batched array-state, default) or "
        "'kernel' (reference event path); outcomes are digest-identical",
    )
    p_fleet.add_argument(
        "--live", action="store_true",
        help="render a live per-policy dashboard (hit rate, stall p50/p99) "
        "after each policy completes",
    )
    p_fleet.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="write the windowed telemetry store as JSON lines to PATH "
        "(replay it with 'repro tail PATH')",
    )
    p_fleet.add_argument(
        "--telemetry-window", type=int, default=5_000_000, metavar="NS",
        help="sim-time window width for --live/--telemetry (default: 5000000)",
    )
    _add_dashboard_args(p_fleet)
    _add_slo_args(p_fleet)

    p_tail = command(
        "tail", _cmd_tail,
        "render a telemetry JSONL file (from fleet --telemetry) as the "
        "dashboard; --follow repaints as the file grows",
    )
    p_tail.add_argument("path", help="telemetry JSONL file to read")
    p_tail.add_argument(
        "-f", "--follow", action="store_true",
        help="keep watching the file and repaint on growth (Ctrl-C to stop)",
    )
    p_tail.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="poll interval in seconds with --follow (default: 1.0)",
    )
    _add_dashboard_args(p_tail)
    _add_slo_args(p_tail)

    p_check = command(
        "bench-check", _cmd_bench_check,
        "benchmark-history regression gate: latest entry per lineage vs "
        "its trailing median; non-zero exit on regression",
        json_help="emit verdicts as JSON",
    )
    p_check.add_argument(
        "--history", metavar="PATH", default=None,
        help="history JSONL (default: benchmarks/results/HISTORY.jsonl)",
    )
    p_check.add_argument(
        "--threshold", type=float, default=10.0, metavar="PCT",
        help="regression threshold in percent (default: 10)",
    )
    p_check.add_argument(
        "--trailing", type=int, default=5, metavar="N",
        help="prior entries per lineage forming the baseline median (default: 5)",
    )
    p_check.add_argument(
        "--bench", action="append", default=None, metavar="NAME",
        help="restrict to one benchmark lineage (repeatable)",
    )
    p_check.add_argument(
        "--backfill", action="store_true",
        help="first append missing entries from committed BENCH_*.json files",
    )
    p_check.add_argument(
        "--results-dir", default="benchmarks/results", metavar="DIR",
        help="directory scanned by --backfill (default: benchmarks/results)",
    )
    p_check.add_argument(
        "--check-after-backfill", action="store_true",
        help="with --backfill, also run the gate afterwards",
    )
    return parser


def _add_simulation_args(p, policy: str) -> None:
    """The runtime-simulation flags ``simulate`` and ``trace`` share."""
    p.add_argument("-n", "--iterations", type=int, default=24)
    p.add_argument("--pattern", choices=("step", "walk", "sinus"), default="step")
    p.add_argument(
        "--policy", type=_policy_names, default=policy, metavar="POLICY",
        help=f"policy-registry name (known: {', '.join(_ONLINE_POLICIES)})",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reactive", action="store_true", help="reconfiguration-blind executive")


def _add_dashboard_args(p) -> None:
    p.add_argument(
        "--live-windows", type=int, default=12, metavar="N",
        help="windows shown per sparkline in the dashboard (default: 12)",
    )
    p.add_argument(
        "--ascii", action="store_true",
        help="ASCII-only sparklines (no unicode blocks)",
    )


def _add_slo_args(p) -> None:
    p.add_argument(
        "--slo-hit-floor", type=float, default=None, metavar="RATE",
        help="SLO: per-window fleet hit-rate floor in [0,1] (breach exits 3)",
    )
    p.add_argument(
        "--slo-p99-ceiling", type=float, default=None, metavar="NS",
        help="SLO: per-window p99 stall-latency ceiling in ns (breach exits 3)",
    )
    p.add_argument(
        "--slo-min-count", type=int, default=1, metavar="N",
        help="skip windows with fewer demands than N (default: 1)",
    )


def _dispatch(args, out, status, tracer=None) -> int:
    """Run the command's handler and print its result: the one place where
    output is routed.  Bad input prints ``error: <message>`` and exits 2."""
    try:
        result = args.handler(args, status)
    except _BadInput as err:
        print(f"error: {err}", file=status)
        return 2
    if args.profile and args.profile_view:
        from repro.flows import render_profile

        table = render_profile(tracer.spans, aggregate=args.profile_view == "aggregate")
        print(table, file=status)
    if args.json:
        print(json.dumps(result.doc, indent=2, sort_keys=True), file=out)
    elif result.text is not None:
        print(result.text, file=out)
    if result.note is not None:
        print(result.note, file=status)
    return result.code


def _run_recorded(args, out, status, raw_argv: list[str]) -> int:
    """Run the command inside one recording tracer, then write its views.

    ``--profile`` prints from the recording before the output.  At exit
    ``--log-json`` appends one JSON line per row of the recording, and
    ``--trace`` — the only view that also installs a telemetry hub — writes
    the Chrome trace (one counter lane per hub store) and its run manifest
    (argv, git revision, seed, the hub's run totals).  Both files are
    written even when the command fails: a failing run is exactly the one
    worth inspecting.
    """
    from repro import obs
    from repro.flows import flow_rows

    tracer = obs.Tracer()
    hub = obs.Telemetry() if args.trace else None
    try:
        with ExitStack() as stack:
            stack.enter_context(obs.use_tracer(tracer))
            if hub is not None:
                stack.enter_context(obs.use_telemetry(hub))
            return _dispatch(args, out, status, tracer)
    finally:
        if args.log_json:
            with open(args.log_json, "a", encoding="utf-8") as sink:
                for row in flow_rows(tracer.spans):
                    sink.write(json.dumps(row.to_dict(), sort_keys=True) + "\n")
        if hub is not None:
            trace_file = pathlib.Path(args.trace)
            obs.write_chrome_trace(
                trace_file, tracer.spans,
                metadata={"trace_id": tracer.trace_id, "command": args.command},
                telemetry=hub,
            )
            manifest = obs.build_manifest(
                argv=["repro", *raw_argv],
                seed=getattr(args, "seed", None),
                metrics=hub.store("run").snapshot(),
                extra={"command": args.command, "trace_file": str(trace_file)},
            )
            manifest_path = obs.write_manifest(obs.manifest_path_for(trace_file), manifest)
            print(
                f"wrote trace {trace_file} ({len(tracer.spans)} spans) "
                f"and manifest {manifest_path}",
                file=status,
            )


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "trace":
        if args.check:  # only reads a trace file: no flow runs, no trace is written
            args.handler, args.profile_view, args.trace = _cmd_check_trace, None, None
        elif args.trace is None:
            args.trace = "trace.json"
    out = out if out is not None else sys.stdout
    # The status writer: stdout in text mode; stderr under --json, so that
    # stdout holds the document alone.
    status = sys.stderr if args.json else out
    try:
        if args.trace or args.profile or args.log_json:
            raw_argv = list(argv) if argv is not None else list(sys.argv[1:])
            return _run_recorded(args, out, status, raw_argv)
        return _dispatch(args, out, status)
    except OSError as err:
        if err.filename is None:  # not a path the user named (a closed pipe, say)
            raise
        print(f"error: {err.filename}: {err.strerror}", file=status)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
