"""Narration rows: spans rebuilt into FlowEvent rows, and the profile view."""

import itertools

import pytest

from repro.flows.observe import FlowEvent, flow_rows, render_profile, row_attributes
from repro.obs import Span, SpanContext

_IDS = itertools.count(1)


def make_span(stage="adequation", cache_hit=False, wall=0.002, start=0.0,
              fingerprint="deadbeef" * 8, flow="f@a", name=None):
    """A finished row span ``wall`` seconds long starting ``start`` seconds in."""
    attributes = row_attributes(flow, {"n": 1}, cache_hit=cache_hit)
    if fingerprint:
        attributes["fingerprint"] = fingerprint
    return Span(
        name=name or f"stage:{stage}",
        context=SpanContext("t", f"s{next(_IDS)}"),
        start_ns=round(start * 1e9),
        duration_ns=round(wall * 1e9),
        attributes=attributes,
    )


# -- rows from spans ----------------------------------------------------------


def test_from_span_reads_the_row_attributes():
    span = make_span(stage="modular_backend", cache_hit=True, wall=0.25)
    row = FlowEvent.from_span(span)
    assert row == FlowEvent(
        flow="f@a", stage="modular_backend", cache_hit=True, wall_time_s=0.25,
        fingerprint="deadbeef" * 8, metrics={"n": 1},
    )
    assert row.to_dict()["status"] == "hit"
    # Non-stage rows keep their span name and default to an uncached miss.
    sweep = make_span(name="sweep:job_finished", fingerprint="")
    del sweep.attributes["cache_hit"]
    row = FlowEvent.from_span(sweep)
    assert (row.stage, row.cache_hit, row.fingerprint) == ("sweep:job_finished", False, "")


def test_only_spans_with_a_flow_attribute_are_rows():
    plain = Span(name="flow:f@a", context=SpanContext("t", "root"), start_ns=0,
                 duration_ns=10, attributes={"jobs": 2})
    rows = flow_rows([plain, make_span(stage="a"), make_span(stage="b")])
    assert [r.stage for r in rows] == ["a", "b"]


# -- render_profile -----------------------------------------------------------


def _sweep_spans():
    return [
        make_span(stage="adequation", cache_hit=False, wall=0.004, start=0.000),
        make_span(stage="adequation", cache_hit=True, wall=0.001, start=0.004),
        make_span(stage="modular_backend", cache_hit=False, wall=0.010, start=0.005),
        make_span(stage="adequation", cache_hit=True, wall=0.001, start=0.015),
    ]


def test_render_profile_default_is_per_event():
    text = render_profile(_sweep_spans())
    assert len([line for line in text.splitlines() if "adequation" in line]) == 3
    total = text.splitlines()[-1].split()
    assert total[:3] == ["total", "2/4", "hit"]
    assert pytest.approx(float(total[3]), abs=0.01) == 16.0  # disjoint rows: the sum


def test_render_profile_aggregate_groups_by_stage():
    text = render_profile(_sweep_spans(), aggregate=True)
    lines = text.splitlines()
    assert lines[0].split() == ["stage", "count", "hits", "rate", "total", "mean"]
    # Busiest stage first.
    assert lines[1].startswith("modular_backend")
    adequation = next(line for line in lines if line.startswith("adequation"))
    fields = adequation.split()
    assert fields[1] == "3" and fields[2] == "2" and fields[3] == "67%"
    assert pytest.approx(float(fields[4]), abs=0.01) == 6.0  # total ms
    assert pytest.approx(float(fields[6]), abs=0.01) == 2.0  # mean ms
    total = lines[-1].split()
    assert total[0] == "total" and total[1] == "4" and total[2] == "2"


def test_profile_total_counts_nested_time_once_and_only_stage_lookups():
    """A summary row covering its children adds no time, and rows without a
    fingerprint (sweep steps, link batches) are not cache lookups."""
    spans = [
        make_span(stage="adequation", cache_hit=True, wall=0.002, start=0.001),
        make_span(stage="executive", wall=0.003, start=0.004),
        make_span(name="sweep:job_finished", fingerprint="", wall=0.006, start=0.001),
        make_span(name="sweep:sweep_completed", fingerprint="", wall=0.010, start=0.000),
    ]
    total = render_profile(spans).splitlines()[-1].split()
    assert total[:3] == ["total", "1/2", "hit"]
    assert pytest.approx(float(total[3]), abs=0.01) == 10.0
    total = render_profile(spans, aggregate=True).splitlines()[-1].split()
    assert total[:4] == ["total", "2", "1", "50%"]
    assert pytest.approx(float(total[4]), abs=0.01) == 10.0
    gap = make_span(name="link:batch", fingerprint="", wall=0.001, start=0.020)
    total = render_profile([*spans, gap]).splitlines()[-1].split()
    assert pytest.approx(float(total[3]), abs=0.01) == 11.0  # disjoint intervals add


def test_render_profile_empty():
    assert "no stage events" in render_profile([])
    assert "no stage events" in render_profile([], aggregate=True)
