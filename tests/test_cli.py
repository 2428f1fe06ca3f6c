"""Tests for the command-line interface."""

import io
import re

import pytest

from repro.cli import build_parser, main
from repro.flows import STAGE_NAMES

ROW_KEYS = {"flow", "stage", "status", "cache_hit", "wall_time_s", "fingerprint", "metrics"}


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def profile_line(text, stage):
    """The fields of the first ``--profile`` table line for ``stage``."""
    return next(line for line in text.splitlines() if line.startswith(stage + " ")).split()


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_flow_command():
    code, text = run_cli("flow")
    assert code == 0
    assert "Design flow report" in text
    assert "final makespan" in text


def test_flow_json_command():
    import json

    code, text = run_cli("flow", "--json")
    assert code == 0
    payload = json.loads(text)
    assert payload["graph"] == "mccdma_tx"
    assert payload["board"] == "sundance"
    assert payload["makespan_ns"] > 0
    assert "D1" in payload["regions"]
    assert [s["stage"] for s in payload["stages"]] == [
        "modelisation",
        "adequation",
        "vhdl_generation",
        "modular_backend",
        "adequation_refine",
        "executive",
    ]


def test_flow_profile_flag():
    code, text = run_cli("--profile", "flow")
    assert code == 0
    assert "modelisation" in text
    assert "adequation_refine" in text
    assert "miss" in text
    assert "Design flow report" in text  # report still follows the profile


@pytest.mark.parametrize("argv", [("flow", "--json"), ("search", "--budget", "15", "--json")])
def test_profile_json_stdout_parses(argv, capsys):
    import json

    code = main(["--profile", *argv])
    captured = capsys.readouterr()
    assert code == 0
    json.loads(captured.out)
    if argv[0] == "flow":
        assert profile_line(captured.err, "modelisation")[1] == "miss"


def test_log_json_flag(tmp_path):
    import json

    target = tmp_path / "events.jsonl"
    code, text = run_cli("--log-json", str(target), "flow")
    assert code == 0
    lines = target.read_text().splitlines()
    assert len(lines) == 6
    assert {json.loads(line)["stage"] for line in lines} >= {"modelisation", "executive"}


def test_log_json_rows_match_flow_json_stages(tmp_path):
    import json

    target = tmp_path / "rows.jsonl"
    code, text = run_cli("--log-json", str(target), "flow", "--json")
    assert code == 0
    stages = json.loads(text)["stages"]
    rows = [json.loads(line) for line in target.read_text().splitlines()]
    assert all(set(row) == ROW_KEYS for row in rows)
    for row in (*stages, *rows):
        del row["wall_time_s"]
    assert rows == stages


def test_table1_command():
    code, text = run_cli("table1")
    assert code == 0
    assert "Fix-Dynamic modulation implementation comparison" in text
    assert "QAM-16 dyn" in text


def test_macrocode_command():
    code, text = run_cli("macrocode")
    assert code == 0
    assert "loop_" in text and "reconfigure_ D1" in text


def test_vhdl_command(tmp_path):
    code, text = run_cli("vhdl", "--out", str(tmp_path))
    assert code == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert "static_f1.vhd" in names
    assert "dyn_d1_mod_qpsk.vhd" in names
    assert "tb_dyn_d1_mod_qpsk.vhd" in names
    assert "top.ucf" in names
    # Written files are checkable as a design.
    from repro.codegen import check_vhdl

    files = {
        p.name: p.read_text() for p in tmp_path.iterdir() if p.suffix == ".vhd"
    }
    check_vhdl(files)


def test_simulate_command():
    code, text = run_cli("simulate", "-n", "12", "--pattern", "step")
    assert code == 0
    assert "runtime[" in text
    assert "modulation plan:" in text
    assert "qpsk" in text and "qam16" in text


def test_simulate_with_gantt_and_policy():
    code, text = run_cli(
        "simulate", "-n", "8", "--pattern", "sinus", "--policy", "history", "--gantt"
    )
    assert code == 0
    assert "runtime[history]" in text
    assert "|" in text  # gantt rows


def test_graph_dump_roundtrips(tmp_path):
    from repro.dfg import io as dfg_io

    path = tmp_path / "g.json"
    code, text = run_cli("graph-dump", "--out", str(path))
    assert code == 0 and "wrote" in text
    graph = dfg_io.load(path)
    assert "mod_qpsk" in graph and "ifft" in graph


def test_board_dump_to_stdout():
    code, text = run_cli("board-dump")
    assert code == 0
    assert '"format": "repro-board"' in text
    assert "xc2v2000" in text


def test_export_command(tmp_path):
    code, text = run_cli("export", "--out", str(tmp_path))
    assert code == 0
    assert "artefacts under" in text
    assert (tmp_path / "hdl" / "static_f1.vhd").exists()
    assert (tmp_path / "executive" / "executive.json").exists()
    assert (tmp_path / "reports" / "flow.txt").exists()


def test_case_b_architecture_flag():
    code, text = run_cli("--architecture", "case_b", "flow")
    assert code == 0
    assert "case_b_processor" in text


def test_sweep_serial_one_point():
    code, text = run_cli(
        "sweep", "--jobs", "0", "--devices", "xc2v1000", "--architectures", "case_a"
    )
    assert code == 0
    assert "xc2v1000" in text and "case_a_standalone" in text
    assert "1/1 jobs ok" in text


def test_sweep_json_report(tmp_path):
    import json

    code, text = run_cli(
        "sweep", "--jobs", "0", "--devices", "xc2v1000,xc2v2000",
        "--architectures", "case_a", "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0
    code, text = run_cli(
        "sweep", "--jobs", "0", "--devices", "xc2v1000,xc2v2000",
        "--architectures", "case_a", "--cache-dir", str(tmp_path / "cache"), "--json",
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["succeeded"] == 2 and payload["failed"] == 0
    assert [r["job_id"] for r in payload["results"]] == [
        "xc2v1000@case_a_standalone",
        "xc2v2000@case_a_standalone",
    ]
    # Second run over the same cache dir: every stage hits.
    assert payload["cache_hits"] == payload["cache_lookups"]


def test_sweep_profile_covers_parallel_run(tmp_path):
    import json

    code, text = run_cli(
        "--profile", "--log-json", str(tmp_path / "events.jsonl"),
        "sweep", "--jobs", "2", "--timeout", "300",
        "--devices", "xc2v1000", "--architectures", "case_a,case_b",
    )
    assert code == 0
    # Every stage of both workers' flows came back with their spans ...
    for stage in STAGE_NAMES:
        assert profile_line(text, stage)[1] == "2"
    # ... next to every step of the engine's own narration.
    for step, count in (
        ("sweep:worker_spawned", "2"),
        ("sweep:job_dispatched", "2"),
        ("sweep:job_started", "2"),
        ("sweep:job_finished", "2"),
        ("sweep:sweep_completed", "1"),
    ):
        assert profile_line(text, step)[1] == count
    rows = [json.loads(line) for line in (tmp_path / "events.jsonl").read_text().splitlines()]
    assert all(set(row) == ROW_KEYS for row in rows)
    assert sum(1 for row in rows if row["fingerprint"]) == 12
    assert [row["stage"] for row in rows].count("sweep:sweep_completed") == 1


def test_profile_total_is_covered_wall_time_over_stage_lookups():
    """The total line counts nested time once and only stage rows as lookups."""
    code, text = run_cli(
        "--profile", "sweep", "--jobs", "0",
        "--devices", "xc2v1000,xc2v2000", "--architectures", "case_a,case_b",
    )
    assert code == 0
    # The completed step lasts the whole sweep: every other row nests in it.
    completed_ms = float(profile_line(text, "sweep:sweep_completed")[4])
    total = profile_line(text, "total")
    assert completed_ms <= float(total[4]) <= completed_ms + 0.5
    hits, lookups, rate = re.search(r"stage cache (\d+)/(\d+) hit \((\d+)%\)", text).groups()
    assert total[1:4] == [lookups, hits, f"{rate}%"] and lookups == "24"

    code, text = run_cli(
        "--profile", "linklevel", "--snr", "4", "--frames", "8", "--batch", "4",
        "--strategies", "qpsk",
    )
    assert code == 0
    completed_ms = float(profile_line(text, "sweep:sweep_completed")[2])
    total = profile_line(text, "total")
    assert total[1:3] == ["0/0", "hit"]  # a link sweep never touches the cache
    assert completed_ms <= float(total[3]) <= completed_ms + 0.5


def test_sweep_unknown_device_is_a_clean_error():
    code, text = run_cli("sweep", "--jobs", "0", "--devices", "xc9999")
    assert code == 2
    assert text.startswith("error:") and "xc9999" in text


def test_sweep_unknown_architecture_is_a_clean_error():
    code, text = run_cli("sweep", "--jobs", "0", "--architectures", "case_z")
    assert code == 2
    assert text.startswith("error:") and "case_z" in text
    assert "case_a" in text  # the error lists the known choices


def test_linklevel_table_and_json():
    import json

    code, text = run_cli(
        "linklevel", "--snr", "0:8:4", "--frames", "8", "--batch", "4",
        "--strategies", "qpsk,adaptive",
    )
    assert code == 0
    assert "qpsk:" in text and "adaptive:" in text
    assert text.count("snr") == 6  # 3 SNR points x 2 strategies
    code, text = run_cli(
        "linklevel", "--snr", "0,6", "--frames", "8", "--batch", "4",
        "--strategies", "qpsk", "--json",
    )
    assert code == 0
    payload = json.loads(text)
    assert [row["snr_db"] for row in payload["qpsk"]] == [0.0, 6.0]
    assert all(row["n_frames"] == 8 for row in payload["qpsk"])


def test_linklevel_reference_path_matches_batched():
    import json

    args = ("linklevel", "--snr", "2,5", "--frames", "8", "--batch", "4",
            "--strategies", "adaptive", "--users", "3", "--json")
    code_a, batched = run_cli(*args)
    code_b, reference = run_cli(*args, "--reference")
    assert code_a == code_b == 0
    assert json.loads(batched) == json.loads(reference)


def test_linklevel_profile_shows_engine_events(tmp_path):
    code, text = run_cli(
        "--profile", "--log-json", str(tmp_path / "events.jsonl"),
        "linklevel", "--snr", "4", "--frames", "8", "--batch", "4",
        "--strategies", "qpsk",
    )
    assert code == 0
    assert "link:batch" in text and "link:point" in text
    lines = (tmp_path / "events.jsonl").read_text().splitlines()
    assert any('"link:point"' in line for line in lines)


def test_closed_stdout_exits_quietly():
    """``repro macrocode | head -1``: a reader that goes away early must not
    leave a traceback behind."""
    import os
    import pathlib
    import subprocess
    import sys

    import repro

    src = pathlib.Path(repro.__file__).resolve().parents[1]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "macrocode"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_linklevel_bad_grid_and_strategy_are_clean_errors():
    code, text = run_cli("linklevel", "--snr", "0:8")
    assert code == 2 and text.startswith("error:")
    code, text = run_cli("linklevel", "--strategies", "bpsk")
    assert code == 2 and "bpsk" in text


def test_trace_flag_writes_chrome_trace_and_manifest(tmp_path):
    import json

    from repro.obs import validate_trace_file

    trace_path = tmp_path / "run.json"
    code, text = run_cli("--trace", str(trace_path), "flow")
    assert code == 0
    assert "wrote trace" in text
    assert validate_trace_file(trace_path) == []
    payload = json.loads(trace_path.read_text())
    names = [e["name"] for e in payload["traceEvents"] if e["ph"] == "X"]
    assert any(n.startswith("flow:") for n in names)
    assert any(n.startswith("stage:") for n in names)
    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    assert manifest["command"] == "flow"
    assert manifest["argv"][0] == "repro"
    assert "flow.stages_total" in manifest["metrics"]


def test_trace_command_runs_sim_and_renders_gantt(tmp_path):
    from repro.obs import validate_trace_file

    trace_path = tmp_path / "t.json"
    svg_path = tmp_path / "t.svg"
    code, text = run_cli(
        "trace", "-n", "12", "--out", str(trace_path), "--svg", str(svg_path)
    )
    assert code == 0
    assert "runtime[on_select]" in text
    assert "D1 |" in text  # the Fig. 4 residency row
    assert "*=prefetch" in text
    assert svg_path.read_text().startswith("<svg")
    assert validate_trace_file(trace_path) == []


def test_trace_command_honours_the_global_trace_path(tmp_path, monkeypatch):
    """``repro --trace PATH trace`` writes PATH and its manifest and nothing
    in the working directory; a bare ``repro trace`` writes trace.json."""
    from repro.obs import validate_trace_file

    work = tmp_path / "cwd"
    work.mkdir()
    monkeypatch.chdir(work)
    trace_path = tmp_path / "global.json"
    code, text = run_cli("--trace", str(trace_path), "trace", "-n", "4")
    assert code == 0, text
    assert validate_trace_file(trace_path) == []
    assert (tmp_path / "global.manifest.json").is_file()
    assert list(work.iterdir()) == []
    code, text = run_cli("trace", "-n", "4")
    assert code == 0, text
    assert sorted(p.name for p in work.iterdir()) == ["trace.json", "trace.manifest.json"]


def test_trace_check_mode(tmp_path):
    good = tmp_path / "good.json"
    run_cli("--trace", str(good), "table1")
    code, text = run_cli("trace", "--check", str(good))
    assert code == 0 and "OK" in text

    bad = tmp_path / "bad.json"
    bad.write_text('{"traceEvents": [{"name": "x"}]}')
    code, text = run_cli("trace", "--check", str(bad))
    assert code == 1
    assert "INVALID" in text


def test_traced_sweep_contains_worker_and_reconfig_spans(tmp_path):
    import json

    from repro.obs import validate_trace_file

    trace_path = tmp_path / "sweep.json"
    code, text = run_cli(
        "--trace", str(trace_path),
        "sweep", "--jobs", "2", "--timeout", "300",
        "--devices", "xc2v1000", "--architectures", "case_a",
    )
    assert code == 0
    assert validate_trace_file(trace_path) == []
    payload = json.loads(trace_path.read_text())
    events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    by_id = {e["args"]["span_id"]: e for e in events if "span_id" in e["args"]}
    attempts = [e for e in events if e["name"].startswith("attempt:")]
    assert attempts
    for event in attempts:  # worker spans resolve to engine-side job spans
        parent = by_id[event["args"]["parent_id"]]
        assert parent["name"].startswith("job:")
    # --trace implies per-point simulations: reconfiguration spans appear.
    kinds = {e["name"].split(":")[0] for e in events}
    assert "load" in kinds and "resident" in kinds
    manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
    assert "reconfig.demand_requests" in manifest["metrics"]


def test_traced_serial_sweep_never_sums_point_in_time_values(tmp_path):
    import json

    from repro.obs import validate_trace_file

    trace_path = tmp_path / "sweep.json"
    code, _ = run_cli("--trace", str(trace_path), "sweep", "--jobs", "0")
    assert code == 0
    assert validate_trace_file(trace_path) == []
    metrics = json.loads((tmp_path / "sweep.manifest.json").read_text())["metrics"]
    assert metrics["sweep.jobs_total"] == {"type": "counter", "value": 6}
    assert metrics["flow.stages_total"] == {"type": "counter", "value": 36}
    clock = metrics["stage.modular_backend.clock_mhz"]  # 66 MHz, not 6 x 66
    assert clock["type"] == "quantile" and clock["count"] == 6
    assert clock["min"] == clock["max"] == clock["p50"] == 66.0


# -- fleet command ----------------------------------------------------------


def test_fleet_command_prints_frontier_table():
    code, text = run_cli(
        "fleet", "--boards", "4", "--requests", "20", "--policy", "none,history"
    )
    assert code == 0
    assert "fleet[none/poisson]" in text
    assert "fleet[history/poisson]" in text
    assert "policy" in text and "hit rate" in text and "digest" in text


def test_fleet_json_output():
    import json

    code, text = run_cli(
        "fleet", "--boards", "3", "--requests", "15", "--policy", "lru",
        "--traffic", "thrash", "--seed", "7", "--json",
    )
    assert code == 0
    payload = json.loads(text)
    assert set(payload) == {"lru"}
    report = payload["lru"]
    assert report["n_boards"] == 3
    assert report["total_requests"] == 45
    assert report["traffic"] == "thrash"
    assert len(report["digest"]) == 64


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--boards", "-1", "n_boards"),
        ("--requests", "-5", "requests_per_board"),
        ("--regions", "0", "regions"),
        ("--modules", "0", "modules_per_region"),
        ("--mean-gap", "-10", "mean_gap_ns"),
        ("--slots", "0", "region_slots"),
        ("--trace-boards", "-1", "trace_boards"),
        ("--telemetry-window", "0", "telemetry_window"),
    ],
)
def test_fleet_out_of_range_flags_are_clean_errors(flag, value, field):
    code, text = run_cli("fleet", "--policy", "none", flag, value)
    assert code == 2
    assert text.startswith(f"error: {field} must be")
    assert "Traceback" not in text


def test_fleet_rejects_unknown_policy_at_parse_time(capsys):
    with pytest.raises(SystemExit):
        run_cli("fleet", "--policy", "oracle")
    err = capsys.readouterr().err
    assert "unknown policy 'oracle'" in err
    assert "belady" in err  # the error lists the registry


def test_sweep_rejects_clairvoyant_policy(capsys):
    with pytest.raises(SystemExit):
        run_cli("sweep", "--simulate-policy", "belady")
    err = capsys.readouterr().err
    assert "clairvoyant" in err


def test_simulate_policy_accepts_registry_names():
    code, text = run_cli("simulate", "--policy", "markov", "-n", "6")
    assert code == 0
    assert "runtime[markov]" in text


def test_fleet_trace_bridges_per_board_lanes(tmp_path):
    import json

    from repro.obs import validate_trace_file

    trace_path = tmp_path / "fleet.json"
    code, _ = run_cli(
        "--trace", str(trace_path),
        "fleet", "--boards", "4", "--requests", "15",
        "--policy", "fixed", "--trace-boards", "2",
    )
    assert code == 0
    assert validate_trace_file(trace_path) == []
    payload = json.loads(trace_path.read_text())
    lanes = {
        e["args"]["name"]
        for e in payload["traceEvents"]
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    # Each traced board gets its own Perfetto lane, named by board id.
    assert {"b0000 [sim time]", "b0001 [sim time]"} <= lanes


def test_only_trace_records_fleet_board_traces(tmp_path, monkeypatch):
    """Board traces feed the trace file alone: ``--profile`` and
    ``--log-json`` record a run without paying for them."""
    import repro.runtime

    seen = []
    run_fleet = repro.runtime.run_fleet

    def spy(config, **kwargs):
        seen.append(config.trace_boards)
        return run_fleet(config, **kwargs)

    monkeypatch.setattr(repro.runtime, "run_fleet", spy)
    argv = ("fleet", "--boards", "3", "--requests", "10", "--policy", "none")
    assert run_cli("--profile", "--log-json", str(tmp_path / "rows.jsonl"), *argv)[0] == 0
    assert run_cli("--trace", str(tmp_path / "fleet.json"), *argv)[0] == 0
    assert seen == [0, 3]


def test_tracing_never_changes_fleet_telemetry(tmp_path):
    import json

    argv = ("fleet", "--boards", "4", "--requests", "20", "--policy", "fixed")
    untraced, traced = tmp_path / "untraced.jsonl", tmp_path / "traced.jsonl"
    assert run_cli(*argv, "--telemetry", str(untraced))[0] == 0
    trace_path = tmp_path / "fleet.json"
    code, _ = run_cli("--trace", str(trace_path), *argv, "--telemetry", str(traced))
    assert code == 0
    # the traced boards' counters and series come from the fast engine too
    assert traced.read_bytes() == untraced.read_bytes()
    rows = [json.loads(line) for line in untraced.read_text().splitlines()][1:]
    assert sum(r["value"] for r in rows if r["name"] == "fleet.demands") == 80
    # and the trace carries the same windowed series as counter tracks
    payload = json.loads(trace_path.read_text())
    samples = {
        (e["name"], e["ts"]): e["args"]["value"]
        for e in payload["traceEvents"] if e["ph"] == "C"
    }
    for row in rows:
        assert row["labels"] == {"policy": "fixed"}
        if row["type"] == "quantile":
            key, value = f"{row['name']}/count{{policy=fixed}}", row["sketch"]["count"]
        else:
            key, value = f"{row['name']}{{policy=fixed}}", row["value"]
        assert samples[(key, row["t_start"] / 1e3)] == value
    metrics = json.loads((tmp_path / "fleet.manifest.json").read_text())["metrics"]
    assert metrics["fleet.fixed.demand_requests"] == {"type": "counter", "value": 80}
    assert metrics["fleet.fixed.boards"] == {"type": "gauge", "value": 4}
    assert metrics["fleet.fixed.end_time_ns"]["type"] == "gauge"


def test_search_command():
    code, text = run_cli("search", "--budget", "25", "--seed", "1")
    assert code == 0
    assert "search report: multiregion2x2" in text
    assert "fixed k=1" in text
    assert "gain vs best fixed" in text


def test_search_json_command():
    import json

    code, text = run_cli(
        "search", "--budget", "20", "--seed", "2", "--method", "greedy", "--json"
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["method"] == "greedy"
    assert payload["gain"] <= 1.0
    assert payload["result"]["digest"] == json.loads(text)["result"]["digest"]


def test_search_same_seed_same_digest():
    import json

    _, a = run_cli("search", "--budget", "20", "--seed", "5", "--json")
    _, b = run_cli("search", "--budget", "20", "--seed", "5", "--json")
    assert json.loads(a)["result"]["digest"] == json.loads(b)["result"]["digest"]


def test_search_rejects_unknown_device():
    code, text = run_cli("search", "--budget", "5", "--device", "xc9999")
    assert code == 2
    assert "xc9999" in text


def test_search_traced_writes_trace_and_manifest(tmp_path):
    import json

    from repro.obs import validate_trace_file

    trace_path = tmp_path / "search.json"
    code, text = run_cli(
        "--trace", str(trace_path), "search", "--budget", "15", "--seed", "0"
    )
    assert code == 0
    assert validate_trace_file(trace_path) == []
    names = {e["name"] for e in json.loads(trace_path.read_text())["traceEvents"]}
    assert "search:anneal" in names
    _, untraced = run_cli("search", "--budget", "15", "--seed", "0", "--json")
    result = json.loads(untraced)["result"]
    metrics = json.loads((tmp_path / "search.manifest.json").read_text())["metrics"]
    # each fact counted once, and best-cost values are gauges, not sums
    for name in ("evaluations", "pruned", "accepted", "improved"):
        assert metrics[f"search.{name}"] == {"type": "counter", "value": result[name]}
    assert metrics["search.best_total_ns"] == {
        "type": "gauge", "value": result["best"]["total_ns"],
    }
    assert metrics["search.best_makespan_ns"]["type"] == "gauge"


def test_traced_search_json_stdout_parses(tmp_path, capsys):
    import json

    trace_path = tmp_path / "search.json"
    code = main(["--trace", str(trace_path), "search", "--budget", "15", "--seed", "0", "--json"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["result"]["pruned"] > 0
    assert "wrote trace" in captured.err


@pytest.mark.parametrize("method", ["anneal", "greedy", "random"])
@pytest.mark.parametrize("json_mode", [False, True])
def test_search_profile_shows_restart_rows(method, json_mode, tmp_path, capsys):
    import json

    rows_path = tmp_path / "rows.jsonl"
    argv = [
        "--profile", "--log-json", str(rows_path), "search", "--budget", "15", "--method", method,
    ]
    out = io.StringIO()
    code = main(argv + ["--json"] * json_mode, out=out)
    captured = capsys.readouterr()
    assert code == 0
    if json_mode:
        result = json.loads(out.getvalue())["result"]
        table = captured.err
    else:
        table = out.getvalue()
        assert table.index("search:restart") < table.index("search report")
    assert profile_line(table, "search:restart")[1] == "2"
    rows = [json.loads(line) for line in rows_path.read_text().splitlines()]
    assert rows and all(set(row) == ROW_KEYS for row in rows)
    restarts = [row for row in rows if row["stage"] == "search:restart"]
    assert [row["flow"] for row in restarts] == [f"search:multiregion2x2:{method}"] * 2
    if json_mode:
        for name in ("evaluations", "pruned", "accepted"):
            assert sum(row["metrics"][name] for row in restarts) == result[name]


def test_search_has_no_jobs_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli("search", "--jobs", "2")
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_fleet_json_with_telemetry_stdout_parses(tmp_path, capsys):
    import json

    stream = tmp_path / "fleet.jsonl"
    code = main([
        "fleet", "--boards", "4", "--requests", "20", "--policy", "lru",
        "--telemetry", str(stream), "--json",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert set(json.loads(captured.out)) == {"lru"}
    assert f"wrote telemetry {stream}" in captured.err


# -- fleet telemetry / dashboard / tail / bench-check ------------------------


def test_fleet_live_renders_policy_rows_and_sparklines():
    code, text = run_cli(
        "fleet", "--live", "--ascii", "--boards", "6", "--requests", "40",
        "--policy", "lru,none", "--engine", "fast",
    )
    assert code == 0
    assert "fleet 2/2 policies" in text
    assert "hit%" in text and "p99 stall" in text  # per-policy hit rate / p99
    assert "policy=lru" in text and "policy=none" in text
    assert "fleet.port_util" in text  # non-panel series get their own rows


def test_fleet_slo_breach_sets_exit_code_three():
    code, text = run_cli(
        "fleet", "--boards", "4", "--requests", "30", "--policy", "none",
        "--engine", "fast", "--slo-hit-floor", "1.01",  # unsatisfiable
    )
    assert code == 3
    assert "SLO BREACH" in text
    assert "hit-rate-floor" in text


def test_traced_fleet_slo_breach_still_exits_three(tmp_path):
    code, text = run_cli(
        "--trace", str(tmp_path / "slo.json"),
        "fleet", "--boards", "3", "--requests", "20", "--policy", "none",
        "--slo-hit-floor", "1.01",
    )
    assert code == 3
    assert "SLO BREACH" in text


def test_fleet_slo_drill_breaches_on_either_engine(tmp_path):
    """The kernel engine records the same telemetry, so the verdict holds."""
    outputs = {}
    for engine in ("fast", "kernel"):
        stream = tmp_path / f"{engine}.jsonl"
        code, text = run_cli(
            "fleet", "--boards", "4", "--requests", "20", "--policy", "fixed",
            "--engine", engine, "--telemetry", str(stream), "--slo-hit-floor", "0.99",
        )
        assert code == 3, engine
        breaches = [line for line in text.splitlines() if line.startswith("SLO BREACH")]
        assert breaches, engine
        outputs[engine] = (breaches, len(stream.read_text().splitlines()))
    assert outputs["kernel"] == outputs["fast"]


def test_fleet_slo_pass_keeps_exit_code_zero():
    code, text = run_cli(
        "fleet", "--boards", "4", "--requests", "30", "--policy", "lru",
        "--engine", "fast", "--slo-hit-floor", "0.0",
    )
    assert code == 0
    assert "no breaches" in text


def test_fleet_telemetry_jsonl_roundtrips_through_tail(tmp_path):
    stream = tmp_path / "fleet.jsonl"
    code, text = run_cli(
        "fleet", "--boards", "5", "--requests", "40", "--policy", "lru",
        "--engine", "fast", "--telemetry", str(stream),
    )
    assert code == 0
    assert f"wrote telemetry {stream}" in text
    code, text = run_cli("tail", str(stream), "--ascii")
    assert code == 0
    assert "policy=lru" in text and "p99 stall" in text


def test_tail_missing_and_malformed_files_exit_two(tmp_path):
    code, text = run_cli("tail", str(tmp_path / "nope.jsonl"))
    assert code == 2
    assert "cannot read" in text
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"schema": 999, "meta": true, "window": 1}\n', encoding="utf-8")
    code, text = run_cli("tail", str(bad))
    assert code == 2
    assert "error" in text


def test_bench_check_gate_passes_and_fails_on_injected_regression(tmp_path):
    import json as _json

    history = tmp_path / "HISTORY.jsonl"
    row = {
        "schema": 1, "bench": "fleet_throughput", "metric": "fast.requests_per_sec",
        "higher_is_better": True, "unit": "req/s", "smoke": False,
        "recorded_at": "2026-08-09T00:00:00+00:00", "host": {}, "detail": {},
    }
    with history.open("w", encoding="utf-8") as f:
        for value in (100.0, 101.0, 99.0, 100.0):
            f.write(_json.dumps({**row, "value": value}) + "\n")
    code, text = run_cli("bench-check", "--history", str(history))
    assert code == 0
    assert "-> ok" in text

    with history.open("a", encoding="utf-8") as f:
        f.write(_json.dumps({**row, "value": 80.0}) + "\n")  # injected -20%
    code, text = run_cli("bench-check", "--history", str(history))
    assert code == 1
    assert "regression" in text


def test_bench_check_backfill_seeds_from_results_dir(tmp_path):
    import json as _json

    results = tmp_path / "results"
    results.mkdir()
    (results / "BENCH_fleet_throughput.json").write_text(
        _json.dumps({"headline": {"fast": {"requests_per_sec": 50.0}}}),
        encoding="utf-8",
    )
    history = tmp_path / "HISTORY.jsonl"
    code, text = run_cli(
        "bench-check", "--backfill", "--results-dir", str(results),
        "--history", str(history), "--check-after-backfill",
    )
    assert code == 0
    assert "backfilled 1 entries" in text
    assert "no prior entries" in text  # single entry: insufficient history
