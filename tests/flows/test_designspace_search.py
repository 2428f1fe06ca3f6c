"""Tests for the designspace search wiring (search_multiregion)."""

import json

import pytest

from repro.dfg.generators import multiregion_graph
from repro.dfg.library import default_library
from repro.fabric.device import XC2V3000
from repro.flows import SearchReport, search_multiregion
from repro.reconfig.architectures import case_b_processor


@pytest.fixture(scope="module")
def report():
    return search_multiregion(
        multiregion_graph(2, 2), default_library(), budget=60, seed=0
    )


def test_report_carries_the_fixed_frontier(report):
    assert isinstance(report, SearchReport)
    assert sorted(report.fixed) == list(range(1, max(report.fixed) + 1))
    assert all(c.makespan_ns > 0 for c in report.fixed.values())


def test_search_never_loses_to_the_fixed_sweep(report):
    """The tentpole acceptance bound: annealer <= best fixed point."""
    assert report.searched.total_ns <= report.best_fixed_cost_ns
    assert report.gain <= 1.0


def test_best_fixed_k_matches_the_frontier(report):
    k = report.best_fixed_k
    assert report.fixed[k].total_ns == report.best_fixed_cost_ns


def test_render_lists_every_frontier_point(report):
    text = report.render()
    for k in report.fixed:
        assert f"fixed k={k}" in text
    assert "gain vs best fixed" in text
    assert report.result.digest() in text


def test_to_dict_is_json_serializable(report):
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["graph"] == "multiregion2x2"
    assert payload["gain"] <= 1.0
    assert payload["searched"]["total_ns"] == report.searched.total_ns
    assert str(payload["best_fixed_k"]) in payload["fixed"]


def test_search_multiregion_is_deterministic():
    a = search_multiregion(multiregion_graph(2, 2), default_library(), budget=30, seed=3)
    b = search_multiregion(multiregion_graph(2, 2), default_library(), budget=30, seed=3)
    assert a.result.digest() == b.result.digest()
    assert a.searched.total_ns == b.searched.total_ns


def test_tiny_budget_falls_back_to_the_frontier():
    """With budget=1 only the start point is evaluated; the report must
    still honour the <=-best-fixed guarantee via the frontier fallback."""
    report = search_multiregion(
        multiregion_graph(2, 2), default_library(), budget=1, seed=0, restarts=1
    )
    assert report.searched.total_ns <= report.best_fixed_cost_ns


def test_alternate_device_and_architecture_flow_through():
    report = search_multiregion(
        multiregion_graph(2, 2),
        default_library(),
        device=XC2V3000,
        architecture=case_b_processor(),
        budget=20,
        seed=0,
    )
    assert report.device == "xc2v3000"
    assert report.architecture == case_b_processor().name


def test_search_runs_in_process_only():
    """``jobs=0`` (what perfbench passes) is the only value left."""
    graph, library = multiregion_graph(2, 2), default_library()
    zero = search_multiregion(graph, library, budget=20, seed=2, jobs=0)
    assert zero.result.digest() == search_multiregion(graph, library, budget=20, seed=2).result.digest()
    for jobs in (1, 2, -1):
        with pytest.raises(ValueError, match="jobs must be 0"):
            search_multiregion(graph, library, budget=5, jobs=jobs)


def test_method_is_forwarded():
    report = search_multiregion(
        multiregion_graph(2, 2), default_library(), method="greedy", budget=20, seed=0
    )
    assert report.method == "greedy"
    assert report.result.method == "greedy"
