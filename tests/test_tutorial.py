"""Executable version of docs/tutorial.md — keeps the documentation honest."""

from repro.arch import sundance_board
from repro.dfg import AlgorithmGraph, CPLX16, WORD32
from repro.dfg.library import DSP_CLASS, FPGA_CLASS, default_library
from repro.flows import DesignFlow, SystemSimulation, parse_constraints


def build_video_design():
    lib = default_library()
    lib.define("pixel_source", {DSP_CLASS: 400})
    lib.define("blur3x3", {DSP_CLASS: 9_000, FPGA_CLASS: 300}, {"luts": 220, "ffs": 180})
    lib.define(
        "edge_enhance", {DSP_CLASS: 22_000, FPGA_CLASS: 700},
        {"luts": 640, "ffs": 420, "mults": 2},
    )
    lib.define("pixel_sink", {FPGA_CLASS: 60}, {"luts": 50, "ffs": 60})

    g = AlgorithmGraph("video")
    sel = g.add_operation("mode", "select_source")
    sel.add_output("value", WORD32, 1)
    src = g.add_operation("pixels", "pixel_source")
    src.add_output("o_blur", CPLX16, 64)
    src.add_output("o_edge", CPLX16, 64)
    blur = g.add_operation("blur", "blur3x3")
    blur.add_input("i", CPLX16, 64)
    blur.add_output("o", CPLX16, 64)
    edge = g.add_operation("edge", "edge_enhance")
    edge.add_input("i", CPLX16, 64)
    edge.add_output("o", CPLX16, 64)
    merge = g.add_operation("filtered", "cond_merge")
    merge.add_input("a", CPLX16, 64)
    merge.add_input("b", CPLX16, 64)
    merge.add_output("o", CPLX16, 64)
    sink = g.add_operation("display", "pixel_sink")
    sink.add_input("i", CPLX16, 64)
    g.connect(src, "o_blur", blur, "i")
    g.connect(src, "o_edge", edge, "i")
    g.connect(blur, "o", merge, "a")
    g.connect(edge, "o", merge, "b")
    g.connect(merge, "o", sink, "i")
    group = g.condition_group("filter", sel, "value")
    group.add_case("blur", [blur])
    group.add_case("edge", [edge])

    constraints = parse_constraints("""
[module blur]
region    = D1
operation = blur
loading   = startup

[module edge]
region    = D1
operation = edge

[region D1]
sharing   = true
exclusive = blur, edge
""")
    return g, lib, constraints


def test_tutorial_flow_and_runtime():
    g, lib, constraints = build_video_design()
    flow = DesignFlow(
        graph=g,
        board=sundance_board(),
        library=lib,
        dynamic_constraints=constraints,
        iteration_deadline_ns=10_000_000,
    )
    result = flow.run()
    assert result.meets_deadline
    assert result.modular.par_report.ok
    assert result.startup_modules() == {"D1": "blur"}
    assert {m for m in result.generated.variant_regions.values()} == {"D1"}

    plan = ["blur"] * 10 + ["edge"] * 10
    run = SystemSimulation(
        result, n_iterations=len(plan),
        selector_values={"filter": lambda it: plan[it]},
    ).run()
    # blur ships at startup: only the blur -> edge swap costs a load.
    assert run.switches == 1
    assert run.n_iterations == 20
    vcd = run.to_vcd()
    assert "In_Reconf.D1" in vcd


def test_tutorial_deadline_violation_raises():
    import pytest

    from repro.flows.flow import TimingConstraintError

    g, lib, constraints = build_video_design()
    flow = DesignFlow(
        graph=g, board=sundance_board(), library=lib,
        dynamic_constraints=constraints,
        iteration_deadline_ns=100,  # impossible
    )
    with pytest.raises(TimingConstraintError):
        flow.run()


def test_tutorial_profile_from_the_recording():
    """Section 6: profile a flow from the tracer's recording."""
    from repro.flows import ArtifactCache, render_profile
    from repro.obs import Tracer, use_tracer

    g, lib, constraints = build_video_design()
    board = sundance_board()

    cache = ArtifactCache()
    flow = DesignFlow(graph=g, board=board, library=lib,
                      dynamic_constraints=constraints, cache=cache)
    with use_tracer(Tracer()) as tracer:
        result = flow.run()
    text = render_profile(tracer.spans)
    lines = text.splitlines()
    assert lines[0].split() == ["stage", "cache", "time", "fingerprint", "metrics"]
    assert [line.split()[0] for line in lines[1:-1]] == [e.stage for e in result.events]
    assert lines[-1].split()[:3] == ["total", "0/6", "hit"]


def test_tutorial_telemetry_slos_and_bench_gate(tmp_path):
    """Section 11: telemetry windows, SLO breaches, the history gate."""
    from repro.obs import SloMonitor, SloRule, TimeSeriesStore, bench_check
    from repro.obs.history import HistoryEntry, append_entry
    from repro.runtime import FleetConfig, run_fleet

    config = FleetConfig(n_boards=8, requests_per_board=40, policy="lru", seed=2)
    store = TimeSeriesStore(window=5_000_000, clock="sim")
    report = run_fleet(config, engine="fast", telemetry=store)
    assert store.total("fleet.demands", policy="lru") == report.total_requests
    # digest parity: telemetry on or off, same fingerprint
    assert run_fleet(config, engine="fast").digest() == report.digest()

    monitor = SloMonitor(store, [
        SloRule(name="hit-rate-floor", series="fleet.hits", kind="floor",
                threshold=1.01, denominator="fleet.demands"),
    ])
    assert monitor.evaluate()  # an unsatisfiable floor must breach

    history = tmp_path / "HISTORY.jsonl"
    for value in (100.0, 101.0, 99.0, 80.0):  # last run regressed 20%
        append_entry(history, HistoryEntry(
            bench="fleet_throughput", metric="fast.requests_per_sec",
            value=value, higher_is_better=True, unit="req/s", smoke=False,
            recorded_at="2026-08-09T00:00:00+00:00",
        ))
    (verdict,) = bench_check(history, threshold_pct=10.0)
    assert verdict.status == "regression"
