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
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
from contextlib import ExitStack
from typing import Optional, Sequence

from repro.codegen.testbench import generate_all_testbenches
from repro.flows import (
    DesignFlow,
    SystemSimulation,
    flow_rows,
    parse_constraints,
    render_profile,
    table1_report,
)
from repro.obs import (
    NOOP_TRACER,
    Telemetry,
    Tracer,
    build_manifest,
    get_telemetry,
    get_tracer,
    manifest_path_for,
    render_region_gantt,
    render_region_gantt_svg,
    use_telemetry,
    use_tracer,
    validate_trace_file,
    write_chrome_trace,
    write_manifest,
)
from repro.mccdma import SnrTrace
from repro.mccdma.bindings import make_case_study_bindings
from repro.mccdma.casestudy import build_mccdma_design
from repro.reconfig import case_a_standalone, case_b_processor
from repro.runtime import ENGINES, TRAFFIC_PATTERNS, get_bundle, policy_names

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

_ARCHITECTURES = {
    "case_a": case_a_standalone,
    "case_b": case_b_processor,
}


def _policy_name(value: str) -> str:
    """Argparse type: one registered policy name, validated at parse time.

    Clairvoyant bundles (Belady) need the demand schedule up front; the
    runtime-simulation surfaces generate demands on the fly, so those names
    are rejected here rather than deep inside a worker process.
    """
    try:
        bundle = get_bundle(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown policy {value!r}; known policies: {', '.join(policy_names())}"
        ) from None
    if bundle.needs_future:
        usable = ", ".join(policy_names(include_future=False))
        raise argparse.ArgumentTypeError(
            f"policy {value!r} is clairvoyant (needs the full demand schedule) "
            f"and only works with the fleet driver; pick one of: {usable}"
        )
    return value


def _policy_list(value: str) -> list[str]:
    """Argparse type: comma-separated registry policy names (fleet allows all)."""
    names = [name.strip() for name in value.split(",") if name.strip()]
    if not names:
        raise argparse.ArgumentTypeError("empty policy list")
    for name in names:
        try:
            get_bundle(name)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"unknown policy {name!r}; known policies: {', '.join(policy_names())}"
            ) from None
    return names


def _run_flow(args) -> "tuple":
    design = build_mccdma_design()
    flow = DesignFlow.from_design(
        design,
        dynamic_constraints=parse_constraints(CASE_STUDY_CONSTRAINTS),
        reconfig_architecture=_ARCHITECTURES[args.architecture](),
        prefetch=not getattr(args, "reactive", False),
    )
    flow.mapping.pin("bit_src", "DSP").pin("select", "DSP")
    return design, flow.run()


def _maybe_profile(args, out, aggregate: bool = False) -> None:
    """Print the profile of the run's recording when ``--profile`` was given."""
    if args.profile:
        print(render_profile(get_tracer().spans, aggregate=aggregate), file=_status_stream(args, out))


def _cmd_flow(args, out) -> int:
    _, result = _run_flow(args)
    _maybe_profile(args, out)
    if getattr(args, "json", False):
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True), file=out)
    else:
        print(result.report(), file=out)
    return 0


def _cmd_table1(args, out) -> int:
    design, result = _run_flow(args)
    _maybe_profile(args, out)
    print(table1_report(design.library, flow=result), file=out)
    return 0


def _cmd_macrocode(args, out) -> int:
    _, result = _run_flow(args)
    _maybe_profile(args, out)
    print(result.executive.render(), file=out)
    return 0


def _cmd_graph_dump(args, out) -> int:
    from repro.dfg import io as dfg_io
    from repro.mccdma.casestudy import build_mccdma_graph

    text = dfg_io.dumps(build_mccdma_graph())
    if args.out:
        pathlib.Path(args.out).write_text(text)
        print(f"wrote {args.out}", file=out)
    else:
        print(text, file=out)
    return 0


def _cmd_board_dump(args, out) -> int:
    from repro.arch import io as arch_io
    from repro.arch.boards import sundance_board

    text = arch_io.dumps(sundance_board())
    if args.out:
        pathlib.Path(args.out).write_text(text)
        print(f"wrote {args.out}", file=out)
    else:
        print(text, file=out)
    return 0


def _cmd_export(args, out) -> int:
    from repro.flows.export import export_build_directory

    _, result = _run_flow(args)
    _maybe_profile(args, out)
    written = export_build_directory(result, args.out)
    for path in written:
        print(f"wrote {path}", file=out)
    print(f"{len(written)} artefacts under {args.out}", file=out)
    return 0


def _cmd_vhdl(args, out) -> int:
    _, result = _run_flow(args)
    _maybe_profile(args, out)
    target = pathlib.Path(args.out)
    target.mkdir(parents=True, exist_ok=True)
    files = dict(result.generated.files)
    files.update(generate_all_testbenches(result.generated.files))
    files["top.ucf"] = result.modular.ucf
    for name, text in sorted(files.items()):
        (target / name).write_text(text)
        print(f"wrote {target / name}", file=out)
    return 0


def _cmd_sweep(args, out) -> int:
    from repro.exec.engine import ParallelSweepEngine
    from repro.fabric.device import device_by_name
    from repro.flows.designspace import design_point_from_payload, sweep_jobs_for_grid
    from repro.mccdma.casestudy import build_mccdma_design

    design = build_mccdma_design()
    try:
        devices = tuple(device_by_name(name.strip()) for name in args.devices.split(","))
    except KeyError as err:
        print(f"error: {err.args[0]}", file=out)
        return 2
    unknown = [
        name.strip()
        for name in args.sweep_architectures.split(",")
        if name.strip() not in _ARCHITECTURES
    ]
    if unknown:
        print(
            f"error: unknown architecture(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(_ARCHITECTURES))}",
            file=out,
        )
        return 2
    architectures = tuple(
        _ARCHITECTURES[name.strip()]() for name in args.sweep_architectures.split(",")
    )
    jobs = sweep_jobs_for_grid(
        design.graph,
        design.library,
        devices=devices,
        architectures=architectures,
        dynamic_constraints=parse_constraints(CASE_STUDY_CONSTRAINTS),
        pins=(("bit_src", "DSP"), ("select", "DSP")),
        prefetch=not getattr(args, "reactive", False),
    )
    if getattr(args, "trace", None) or args.simulate_iterations:
        # A traced sweep should show real reconfiguration activity, so each
        # fitting point also runs a short system simulation in its worker.
        n_iter = args.simulate_iterations or 8
        jobs = [
            dataclasses.replace(
                job, simulate_iterations=n_iter, simulate_policy=args.simulate_policy
            )
            for job in jobs
        ]
    with ParallelSweepEngine(
        jobs=args.jobs,
        timeout_s=args.timeout,
        retries=args.retries,
        cache_dir=args.cache_dir,
        sweep_name=f"designspace:{design.graph.name}",
    ) as engine:
        report = engine.run(jobs)
    _maybe_profile(args, out, aggregate=True)
    if args.json:
        payload = report.to_dict()
        payload["points"] = [
            design_point_from_payload(r).render() for r in report.results
        ]
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
    else:
        for result in report.results:
            print(design_point_from_payload(result).render(), file=out)
        print(report.summary(), file=out)
    return 0 if not report.failed else 1


def _make_snr(pattern: str, n: int):
    if pattern == "step":
        return SnrTrace.step(low_db=8.0, high_db=22.0, period=max(1, n // 4), n=n)
    if pattern == "walk":
        return SnrTrace.random_walk(start_db=14.0, step_db=1.2, n=n, seed=0)
    if pattern == "sinus":
        return SnrTrace.sinusoid(mean_db=14.0, amplitude_db=6.0, period=max(2, n // 3), n=n)
    raise ValueError(f"unknown SNR pattern {pattern!r}")


def _cmd_simulate(args, out) -> int:
    _, result = _run_flow(args)
    _maybe_profile(args, out)
    snr = _make_snr(args.pattern, args.iterations)
    state = make_case_study_bindings(snr, seed=args.seed)
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
    print(runtime.summary(), file=out)
    plan = ", ".join(m.value for m in state.selected)
    print(f"modulation plan: {plan}", file=out)
    if args.gantt:
        print(runtime.execution.trace.gantt(width=72), file=out)
    return 0


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


def _cmd_linklevel(args, out) -> int:
    from repro.mccdma.engine import LinkEngineConfig, LinkSimulationEngine
    from repro.mccdma.transmitter import MCCDMAConfig

    try:
        snr_points = _parse_snr_grid(args.snr)
    except ValueError as err:
        print(f"error: {err}", file=out)
        return 2
    if not snr_points:
        print("error: empty SNR grid", file=out)
        return 2
    strategies = [name.strip() for name in args.strategies.split(",") if name.strip()]
    unknown = [s for s in strategies if s not in ("qpsk", "qam16", "adaptive")]
    if unknown:
        print(f"error: unknown strategy(ies) {', '.join(unknown)}", file=out)
        return 2
    report: dict[str, list[dict]] = {}
    engine = LinkSimulationEngine(
        config=MCCDMAConfig(user_codes=tuple(range(args.users))),
        engine=LinkEngineConfig(
            batch_frames=args.batch,
            batched=not args.reference,
            ci_halfwidth=args.ci_halfwidth,
        ),
    )
    with ExitStack() as stack:
        pool = None
        if args.jobs > 0 and len(strategies) > 1:
            # One warm pool serves every strategy's curve: workers spawn
            # and import once, not once per --strategy.
            from repro.exec.pool import WorkerPool

            pool = stack.enter_context(WorkerPool(args.jobs, name="linklevel"))
        for strategy in strategies:
            results = engine.sweep_points(
                strategy, snr_points, args.frames, seed=args.seed,
                jobs=args.jobs, timeout_s=args.timeout, pool=pool,
            )
            report[strategy] = [
                {"snr_db": snr, **result.to_dict(), "ber": result.ber}
                for snr, result in zip(snr_points, results)
            ]
    _maybe_profile(args, out)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True), file=out)
    else:
        for strategy in strategies:
            print(f"{strategy}:", file=out)
            for row in report[strategy]:
                print(
                    f"  snr {row['snr_db']:+6.2f} dB  ber {row['ber']:.3e}  "
                    f"frames {row['n_frames']:4d}  goodput "
                    f"{row['delivered_bits'] / max(row['n_frames'], 1):.1f} bits/frame",
                    file=out,
                )
    return 0


def _cmd_trace(args, out) -> int:
    """Traced case-study run producing the paper's Fig. 4 residency view.

    ``--check PATH`` instead validates an existing Chrome trace file (span
    parent chain, phase vocabulary, timestamps) and exits non-zero on errors.
    """
    if args.check:
        errors = validate_trace_file(args.check)
        if errors:
            for error in errors:
                print(f"INVALID: {error}", file=out)
            print(f"{args.check}: {len(errors)} error(s)", file=out)
            return 1
        print(f"{args.check}: OK", file=out)
        return 0
    _, result = _run_flow(args)
    _maybe_profile(args, out)
    snr = _make_snr(args.pattern, args.iterations)
    state = make_case_study_bindings(snr, seed=args.seed)
    runtime = SystemSimulation(
        result,
        n_iterations=args.iterations,
        bindings=state.bindings,
        policy=args.policy,
        capture={"dac"},
    ).run()
    print(runtime.summary(), file=out)
    tracer = get_tracer()
    if tracer.enabled:
        print(render_region_gantt(tracer.spans), file=out)
        if args.svg:
            svg_path = pathlib.Path(args.svg)
            svg_path.parent.mkdir(parents=True, exist_ok=True)
            svg_path.write_text(render_region_gantt_svg(tracer.spans), encoding="utf-8")
            print(f"wrote {svg_path}", file=out)
    return 0


def _cmd_search(args, out) -> int:
    """Annealed partition/schedule/floorplan co-optimization vs fixed sweep."""
    from repro.dfg.generators import multiregion_graph
    from repro.dfg.library import default_library
    from repro.fabric.device import device_by_name
    from repro.flows.designspace import search_multiregion

    try:
        device = device_by_name(args.device)
    except KeyError as err:
        print(f"error: {err.args[0]}", file=out)
        return 2
    graph = multiregion_graph(n_groups=args.groups, alternatives=args.alternatives)
    report = search_multiregion(
        graph,
        default_library(),
        device=device,
        architecture=_ARCHITECTURES[args.architecture](),
        method=args.method,
        budget=args.budget,
        seed=args.seed,
        restarts=args.restarts,
        max_regions=args.max_regions,
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
    _maybe_profile(args, out, aggregate=True)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True), file=out)
    else:
        print(report.render(), file=out)
    return 0


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


def _status_stream(args, out):
    """Where the profile and "wrote ..." lines go: stderr under ``--json``, so stdout parses."""
    return sys.stderr if getattr(args, "json", False) else out


def _redraw(out, text: str) -> None:
    """Repaint a live dashboard: clear-screen only when ``out`` is a tty."""
    if getattr(out, "isatty", lambda: False)():
        print("\x1b[2J\x1b[H", end="", file=out)
    print(text, file=out)


def _cmd_fleet(args, out) -> int:
    """Multiplex a fleet of boards on one kernel; frontier across policies."""
    from repro.obs import spans_from_sim_trace
    from repro.runtime import FleetConfig, generate_fleet_schedules, run_fleet

    tracer = get_tracer()
    # With --trace, record a few boards' full kernel traces so Perfetto
    # shows one lane per board; tracing the whole fleet would dominate RAM
    # (traced boards run through the reference kernel under either engine).
    trace_boards = args.trace_boards
    if trace_boards is None:
        trace_boards = 3 if args.trace else 0
    try:
        base = FleetConfig(
            n_boards=args.boards,
            requests_per_board=args.requests,
            traffic=args.traffic,
            seed=args.seed,
            regions=args.regions,
            modules_per_region=args.modules,
            region_slots=args.slots,
            architecture=_ARCHITECTURES[args.architecture]().name,
            mean_gap_ns=args.mean_gap,
            trace_boards=trace_boards,
            engine=args.engine,
        )
        if args.telemetry_window < 1:
            raise ValueError(f"telemetry_window must be >= 1, got {args.telemetry_window}")
    except ValueError as err:
        print(f"error: {err}", file=out)
        return 2
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
            for board_trace in report.traces:
                tracer.add_spans(
                    spans_from_sim_trace(board_trace, parent=span.context)
                )
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
            done = len(reports)
            _redraw(
                out,
                render_dashboard(
                    store,
                    last=args.live_windows,
                    breaches=breaches,
                    title=f"fleet {done}/{len(args.policy)} policies "
                    f"({args.boards} boards x {args.requests} req)",
                    ascii_only=args.ascii,
                ),
            )
    if args.telemetry is not None:
        telemetry_path = pathlib.Path(args.telemetry)
        telemetry_path.parent.mkdir(parents=True, exist_ok=True)
        rows = store.write_jsonl(telemetry_path)
        print(f"wrote telemetry {telemetry_path} ({rows} rows)", file=_status_stream(args, out))
    if args.json:
        payload = {name: report.to_dict() for name, report in reports.items()}
        if monitor is not None and monitor.rules:
            payload["slo_breaches"] = [breach.to_dict() for breach in breaches]
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        return 3 if breaches else 0
    for report in reports.values():
        print(report.summary(), file=out)
    print(file=out)
    print(f"{'policy':12s} {'hit rate':>9s} {'mean stall':>12s} {'req/s':>12s} {'digest':>12s}", file=out)
    for name, report in reports.items():
        print(
            f"{name:12s} {report.hit_rate:9.1%} {report.mean_stall_ns / 1e3:10.1f}us "
            f"{report.requests_per_sec:12,.0f} {report.digest()[:12]:>12s}",
            file=out,
        )
    if monitor is not None and monitor.rules:
        if breaches:
            print(file=out)
            for breach in breaches:
                print(f"SLO BREACH: {breach.describe()}", file=out)
            print(f"{len(breaches)} SLO breach(es)", file=out)
            return 3
        print(f"SLO: {len(monitor.rules)} rule(s), no breaches", file=out)
    return 0


def _cmd_tail(args, out) -> int:
    """Render a telemetry JSONL stream as the fleet dashboard.

    One-shot by default (read, render, exit — safe for CI and pipes);
    ``--follow`` re-reads and repaints whenever the file grows, the
    ``top``-style view of a run writing telemetry elsewhere.
    """
    import time as _time

    from repro.obs.dashboard import render_dashboard
    from repro.obs.telemetry import SloMonitor, TimeSeriesStore

    path = pathlib.Path(args.path)
    last_size = -1
    while True:
        try:
            size = path.stat().st_size
        except OSError:
            if not args.follow:
                print(f"error: cannot read {path}", file=out)
                return 2
            size = -1
        if size != last_size and size >= 0:
            last_size = size
            try:
                store = TimeSeriesStore.read_jsonl(path)
            except ValueError as err:
                print(f"error: {path}: {err}", file=out)
                return 2
            breaches = SloMonitor(store, _fleet_slo_rules(args)).evaluate()
            _redraw(
                out,
                render_dashboard(
                    store,
                    last=args.live_windows,
                    breaches=breaches,
                    title=str(path),
                    ascii_only=args.ascii,
                ),
            )
        if not args.follow:
            return 0
        try:
            _time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            return 0


def _cmd_bench_check(args, out) -> int:
    """The benchmark-history regression gate (and its --backfill mode)."""
    from repro.obs.history import DEFAULT_HISTORY_PATH, backfill, bench_check

    history_path = pathlib.Path(args.history) if args.history else DEFAULT_HISTORY_PATH
    if args.backfill:
        entries = backfill(args.results_dir, history_path)
        print(f"backfilled {len(entries)} entries into {history_path}", file=out)
        if not args.check_after_backfill:
            return 0
    results = bench_check(
        history_path,
        threshold_pct=args.threshold,
        trailing=args.trailing,
        benches=args.bench or None,
    )
    if args.json:
        print(
            json.dumps([dataclasses.asdict(r) for r in results], indent=2, sort_keys=True),
            file=out,
        )
    else:
        if not results:
            print(f"{history_path}: no history entries to check", file=out)
        for result in results:
            print(result.describe(), file=out)
    regressions = [r for r in results if r.status == "regression"]
    if regressions:
        print(f"{len(regressions)} regression(s) beyond {args.threshold:g}%", file=out)
        return 1
    return 0


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

    p_flow = sub.add_parser("flow", help="run the full design flow and print the report")
    p_flow.add_argument(
        "--json", action="store_true",
        help="emit the flow result as JSON (FlowResult.to_dict()) instead of the text report",
    )
    sub.add_parser("table1", help="regenerate the paper's Table 1")
    sub.add_parser("macrocode", help="print the synchronized executive")

    p_gd = sub.add_parser("graph-dump", help="serialize the case-study algorithm graph")
    p_gd.add_argument("--out", default=None, help="output file (default: stdout)")
    p_bd = sub.add_parser("board-dump", help="serialize the Sundance board description")
    p_bd.add_argument("--out", default=None, help="output file (default: stdout)")

    p_vhdl = sub.add_parser("vhdl", help="write generated VHDL, testbenches and UCF")
    p_vhdl.add_argument("--out", required=True, help="output directory")

    p_exp = sub.add_parser(
        "export", help="write the complete build directory (HDL, UCF, executive, bitstreams, reports)"
    )
    p_exp.add_argument("--out", required=True, help="output directory")

    p_sweep = sub.add_parser(
        "sweep",
        help="parallel design-space sweep of the case study over devices x architectures",
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
    p_sweep.add_argument(
        "--json", action="store_true",
        help="emit the sweep report as JSON instead of the point table",
    )
    p_sweep.add_argument("--reactive", action="store_true", help="reconfiguration-blind executive")
    p_sweep.add_argument(
        "--simulate-iterations", type=int, default=0, metavar="N",
        help="run an N-iteration system simulation after each fitting point "
        "(default: 0; --trace implies 8 so traces show reconfiguration spans)",
    )
    p_sweep.add_argument(
        "--simulate-policy", type=_policy_name, default="on_select",
        metavar="POLICY",
        help="policy-registry name for the per-point simulations "
        f"(default: on_select; known: {', '.join(policy_names(include_future=False))})",
    )

    p_link = sub.add_parser(
        "linklevel",
        help="batched Monte-Carlo BER/goodput sweep of the MC-CDMA link",
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
    p_link.add_argument("--json", action="store_true", help="emit results as JSON")

    p_sim = sub.add_parser("simulate", help="runtime simulation with real MC-CDMA data")
    p_sim.add_argument("-n", "--iterations", type=int, default=24)
    p_sim.add_argument("--pattern", choices=("step", "walk", "sinus"), default="step")
    p_sim.add_argument(
        "--policy", type=_policy_name, default="none", metavar="POLICY",
        help="policy-registry name "
        f"(known: {', '.join(policy_names(include_future=False))})",
    )
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--reactive", action="store_true", help="reconfiguration-blind executive")
    p_sim.add_argument("--gantt", action="store_true", help="print an ASCII Gantt chart")

    p_trace = sub.add_parser(
        "trace",
        help="traced flow + runtime simulation with the Fig. 4 region-residency "
        "Gantt, or --check to validate an existing trace file",
    )
    p_trace.add_argument(
        "--out", dest="trace", metavar="PATH", default="trace.json",
        help="Chrome trace-event output path (default: trace.json)",
    )
    p_trace.add_argument(
        "--svg", metavar="PATH", default=None,
        help="also write the region-residency Gantt as an SVG document",
    )
    p_trace.add_argument(
        "--check", metavar="PATH", default=None,
        help="validate an existing Chrome trace file instead of running anything",
    )
    p_trace.add_argument("-n", "--iterations", type=int, default=24)
    p_trace.add_argument("--pattern", choices=("step", "walk", "sinus"), default="step")
    p_trace.add_argument(
        "--policy", type=_policy_name, default="on_select", metavar="POLICY",
        help="policy-registry name "
        f"(known: {', '.join(policy_names(include_future=False))})",
    )
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--reactive", action="store_true", help="reconfiguration-blind executive")

    p_search = sub.add_parser(
        "search",
        help="co-optimize partitioning, region count and floorplan by "
        "simulated annealing; report the fixed-sweep frontier alongside",
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
    p_search.add_argument("--json", action="store_true", help="emit the report as JSON")

    p_fleet = sub.add_parser(
        "fleet",
        help="multiplex a fleet of boards on one event kernel and compare "
        "management policies (hit-rate / stall frontier)",
    )
    p_fleet.add_argument("--boards", type=int, default=100, help="boards in the fleet")
    p_fleet.add_argument("--requests", type=int, default=200, help="requests per board")
    p_fleet.add_argument(
        "--policy", type=_policy_list, default=["none", "fixed", "history"],
        metavar="P1,P2,...",
        help="comma-separated policy-registry names to frontier "
        f"(known: {', '.join(policy_names())})",
    )
    p_fleet.add_argument("--traffic", choices=TRAFFIC_PATTERNS, default="poisson")
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
        "--engine", choices=ENGINES, default="fast",
        help="fleet engine: 'fast' (batched array-state, default) or "
        "'kernel' (reference event path); outcomes are digest-identical",
    )
    p_fleet.add_argument("--json", action="store_true", help="emit reports as JSON")
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

    p_tail = sub.add_parser(
        "tail",
        help="render a telemetry JSONL file (from fleet --telemetry) as the "
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

    p_check = sub.add_parser(
        "bench-check",
        help="benchmark-history regression gate: latest entry per lineage vs "
        "its trailing median; non-zero exit on regression",
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
    p_check.add_argument("--json", action="store_true", help="emit verdicts as JSON")
    return parser


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


_COMMANDS = {
    "flow": _cmd_flow,
    "table1": _cmd_table1,
    "macrocode": _cmd_macrocode,
    "graph-dump": _cmd_graph_dump,
    "board-dump": _cmd_board_dump,
    "vhdl": _cmd_vhdl,
    "export": _cmd_export,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "linklevel": _cmd_linklevel,
    "trace": _cmd_trace,
    "search": _cmd_search,
    "fleet": _cmd_fleet,
    "tail": _cmd_tail,
    "bench-check": _cmd_bench_check,
}


def _run_recorded(args, out, raw_argv: list[str], trace_path: Optional[str]) -> int:
    """Run the command inside one recording tracer, then write its views.

    ``--profile`` prints from the recording while the command runs.  At
    exit ``--log-json`` appends one JSON line per row of the recording, and
    ``--trace`` — the only view that also installs a telemetry hub — writes
    the Chrome trace (one counter lane per hub store) and its run manifest
    (argv, git revision, seed, the hub's run totals).  Both files are
    written even when the command fails: a failing run is exactly the one
    worth inspecting.
    """
    tracer = Tracer()
    hub = Telemetry() if trace_path else None
    try:
        with ExitStack() as stack:
            stack.enter_context(use_tracer(tracer))
            if hub is not None:
                stack.enter_context(use_telemetry(hub))
            return _COMMANDS[args.command](args, out)
    finally:
        if args.log_json:
            with open(args.log_json, "a", encoding="utf-8") as sink:
                for row in flow_rows(tracer.spans):
                    sink.write(json.dumps(row.to_dict(), sort_keys=True) + "\n")
        if hub is not None:
            trace_file = pathlib.Path(trace_path)
            write_chrome_trace(
                trace_file, tracer.spans,
                metadata={"trace_id": tracer.trace_id, "command": args.command},
                telemetry=hub,
            )
            manifest = build_manifest(
                argv=["repro", *raw_argv],
                seed=getattr(args, "seed", None),
                metrics=hub.store("run").snapshot(),
                extra={"command": args.command, "trace_file": str(trace_file)},
            )
            manifest_path = write_manifest(manifest_path_for(trace_file), manifest)
            print(
                f"wrote trace {trace_file} ({len(tracer.spans)} spans) "
                f"and manifest {manifest_path}",
                file=_status_stream(args, out),
            )


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    args = build_parser().parse_args(argv)
    stream = out if out is not None else sys.stdout
    # ``trace --check`` only reads a trace file; it never writes one.
    trace_path = None if getattr(args, "check", None) else args.trace
    if trace_path or args.profile or args.log_json:
        raw_argv = list(argv) if argv is not None else list(sys.argv[1:])
        return _run_recorded(args, stream, raw_argv, trace_path)
    return _COMMANDS[args.command](args, stream)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
