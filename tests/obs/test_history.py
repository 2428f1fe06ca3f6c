"""Benchmark headline history and the bench-check regression gate."""

import json
from pathlib import Path

import pytest

from repro.obs import (
    CheckResult,
    HistoryEntry,
    append_from_result,
    backfill,
    bench_check,
    extract_headline,
    load_history,
)
from repro.obs.history import HEADLINES, HistoryError, append_entry, host_fingerprint


def _entry(value, bench="fleet_throughput", metric="fast.requests_per_sec",
           higher_is_better=True, smoke=False):
    return HistoryEntry(
        bench=bench,
        metric=metric,
        value=value,
        higher_is_better=higher_is_better,
        unit="req/s",
        smoke=smoke,
        recorded_at="2026-08-09T00:00:00+00:00",
    )


def _seed(path, values, **kwargs):
    for value in values:
        append_entry(path, _entry(value, **kwargs))


def test_extract_headline_digs_dotted_paths_and_suffixes():
    payload = {"headline": {"fast": {"requests_per_sec": 123.5}}, "digest": "abc"}
    entry = extract_headline("fleet_throughput", payload)
    assert entry.value == 123.5
    assert entry.detail["digest"] == "abc"
    assert entry.host == host_fingerprint()
    smoke = extract_headline("fleet_throughput_smoke", payload)
    assert smoke.bench == "fleet_throughput"  # suffix selects the lineage...
    assert smoke.smoke is True                # ...not a separate bench name
    assert extract_headline("unknown_bench", payload) is None


def test_extract_headline_rejects_non_finite_values():
    with pytest.raises(ValueError):
        extract_headline(
            "fleet_throughput",
            {"headline": {"fast": {"requests_per_sec": float("inf")}}},
        )


def test_append_from_result_roundtrips_through_load(tmp_path):
    path = tmp_path / "HISTORY.jsonl"
    payload = {"headline": {"fast": {"requests_per_sec": 10.0}}, "smoke": False}
    entry = append_from_result(path, "fleet_throughput", payload)
    assert entry is not None
    (loaded,) = load_history(path)
    assert loaded.value == 10.0
    assert append_from_result(path, "not_registered", {}) is None
    assert len(load_history(path)) == 1


def test_gate_passes_on_stable_history(tmp_path):
    path = tmp_path / "HISTORY.jsonl"
    _seed(path, [100.0, 102.0, 98.0, 101.0])
    (result,) = bench_check(path, threshold_pct=10.0)
    assert result.ok and result.status == "ok"
    assert result.baseline == pytest.approx(100.0)
    assert result.n_prior == 3


def test_gate_fails_on_injected_twenty_percent_regression(tmp_path):
    path = tmp_path / "HISTORY.jsonl"
    _seed(path, [100.0, 102.0, 98.0])
    append_entry(path, _entry(80.0))  # 20% below the trailing median
    (result,) = bench_check(path, threshold_pct=10.0)
    assert not result.ok
    assert result.status == "regression"
    assert result.change_pct == pytest.approx(-20.0)
    assert "regression" in result.describe()


def test_gate_direction_awareness_for_lower_is_better_metrics(tmp_path):
    path = tmp_path / "HISTORY.jsonl"
    kwargs = dict(bench="obs_overhead", metric="noop_span_ns", higher_is_better=False)
    _seed(path, [100.0, 100.0, 100.0, 120.0], **kwargs)  # 20% slower span
    (result,) = bench_check(path, threshold_pct=10.0)
    assert result.status == "regression"
    assert result.change_pct == pytest.approx(-20.0)  # normalized: + = better
    _seed(path, [80.0], **kwargs)  # faster is an improvement
    (result,) = bench_check(path, threshold_pct=10.0)
    assert result.status == "ok"


def test_smoke_and_full_runs_are_separate_lineages(tmp_path):
    path = tmp_path / "HISTORY.jsonl"
    _seed(path, [100.0, 100.0])
    _seed(path, [10.0, 5.0], smoke=True)  # smoke collapse must not gate full
    results = {(r.smoke): r for r in bench_check(path, threshold_pct=10.0)}
    assert results[False].status == "ok"
    assert results[True].status == "regression"


def test_gate_with_no_prior_entries_passes_as_insufficient_history(tmp_path):
    path = tmp_path / "HISTORY.jsonl"
    _seed(path, [100.0])
    (result,) = bench_check(path)
    assert result.status == "insufficient-history"
    assert result.ok
    assert "no prior entries" in result.describe()


def test_gate_on_missing_file_and_bench_filter(tmp_path):
    assert bench_check(tmp_path / "missing.jsonl") == []
    path = tmp_path / "HISTORY.jsonl"
    _seed(path, [100.0, 100.0])
    _seed(path, [1.0, 1.0], bench="linklevel_throughput", metric="overall_speedup")
    results = bench_check(path, benches=["fleet_throughput"])
    assert [r.bench for r in results] == ["fleet_throughput"]


def test_load_history_rejects_malformed_and_newer_schema(tmp_path):
    path = tmp_path / "HISTORY.jsonl"
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_history(path)
    path.write_text(json.dumps({"schema": 999, "bench": "x", "metric": "m",
                                "value": 1.0}) + "\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_history(path)


def test_backfill_seeds_from_bench_json_and_is_idempotent(tmp_path):
    results_dir = tmp_path / "results"
    results_dir.mkdir()
    (results_dir / "BENCH_fleet_throughput.json").write_text(
        json.dumps({"headline": {"fast": {"requests_per_sec": 55.0}}}),
        encoding="utf-8",
    )
    (results_dir / "BENCH_unrelated.json").write_text("{}", encoding="utf-8")
    history = tmp_path / "HISTORY.jsonl"

    first = backfill(results_dir, history)
    assert [e.bench for e in first] == ["fleet_throughput"]
    (loaded,) = load_history(history)
    assert loaded.detail["backfilled_from"] == "BENCH_fleet_throughput.json"

    assert backfill(results_dir, history) == []  # second run: no duplicates
    assert len(load_history(history)) == 1


def test_backfill_rejects_a_malformed_result_before_appending(tmp_path):
    """A garbage ``BENCH_*.json`` is a HistoryError (bad input), and the
    files read before it append nothing."""
    results_dir = tmp_path / "results"
    results_dir.mkdir()
    (results_dir / "BENCH_fleet_throughput.json").write_text(
        json.dumps({"headline": {"fast": {"requests_per_sec": 55.0}}}),
        encoding="utf-8",
    )
    (results_dir / "BENCH_search_anneal.json").write_text(
        json.dumps({"evaluations": 10, "wall_s": 0}), encoding="utf-8"
    )
    (results_dir / "BENCH_zz.json").write_text("not json", encoding="utf-8")
    history = tmp_path / "HISTORY.jsonl"
    with pytest.raises(HistoryError, match="BENCH_search_anneal.json"):
        backfill(results_dir, history)
    (results_dir / "BENCH_search_anneal.json").unlink()
    with pytest.raises(HistoryError, match="BENCH_zz.json"):
        backfill(results_dir, history)
    assert not history.exists()


def test_committed_results_backfill_cleanly_and_pass_the_gate(tmp_path):
    """The repo's own BENCH_*.json snapshots must feed the gate."""
    results_dir = Path(__file__).resolve().parents[2] / "benchmarks" / "results"
    history = tmp_path / "HISTORY.jsonl"
    entries = backfill(results_dir, history)
    assert {e.bench for e in entries} >= {"fleet_throughput", "linklevel_throughput"}
    assert all(r.ok for r in bench_check(history))


def test_headline_registry_entries_are_well_formed():
    for bench, (metric, extractor, higher_is_better, unit) in HEADLINES.items():
        assert isinstance(metric, str) and metric
        assert callable(extractor) or isinstance(extractor, str)
        assert isinstance(higher_is_better, bool)
        assert isinstance(unit, str)
