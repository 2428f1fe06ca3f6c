"""Tests for tracing, spans, and metric helpers."""

import math

import pytest

from repro.sim import Trace, interval_union
from repro.sim import units


def test_trace_begin_end_span():
    tr = Trace()
    tr.begin(10, "fpga.D1", "compute", detail="qpsk")
    tr.end(25, "fpga.D1", "compute")
    (span,) = tr.spans
    assert span.duration_ns == 15
    assert tr.spans_of("fpga.D1") == [span]


def test_trace_double_begin_rejected():
    tr = Trace()
    tr.begin(0, "a", "compute")
    with pytest.raises(ValueError):
        tr.begin(1, "a", "compute")


def test_trace_end_without_begin_rejected():
    tr = Trace()
    with pytest.raises(ValueError):
        tr.end(5, "a", "compute")


def test_trace_end_before_begin_rejected():
    tr = Trace()
    tr.begin(10, "a", "compute")
    with pytest.raises(ValueError):
        tr.end(5, "a", "compute")


def test_trace_records_query_sorted():
    tr = Trace()
    tr.begin(5, "m", "request", "cfg2")
    tr.end(6, "m", "request")
    tr.begin(2, "m", "request", "cfg1")
    tr.end(4, "m", "request")
    tr.begin(3, "n", "grant")
    tr.end(9, "n", "grant")
    spans = tr.spans_of(actor="m")
    assert [(s.start_ns, s.attributes["detail"]) for s in spans] == [(2, "cfg1"), (5, "cfg2")]
    assert [s.track for s in tr.spans_of(kind="grant")] == ["n"]
    assert tr.end_time() == 9
    assert Trace().end_time() == 0


def test_interval_union_merges():
    assert interval_union([(0, 5), (3, 8), (10, 12)]) == [(0, 8), (10, 12)]
    assert interval_union([]) == []
    assert interval_union([(5, 5)]) == []  # empty interval dropped
    assert interval_union([(0, 2), (2, 4)]) == [(0, 4)]  # adjacent merge


def test_gantt_renders_rows():
    tr = Trace()
    tr.begin(0, "dsp", "compute")
    tr.end(50, "dsp", "compute")
    tr.begin(50, "fpga", "reconfig")
    tr.end(100, "fpga", "reconfig")
    chart = tr.gantt(width=20)
    assert "dsp" in chart and "fpga" in chart
    assert "#" in chart and "R" in chart


def test_units_conversions():
    assert units.ms(4) == 4_000_000
    assert units.to_ms(units.ms(4)) == pytest.approx(4.0)
    assert units.us(1.5) == 1500
    assert units.seconds(0.001) == units.ms(1)


def test_cycles_to_ns_rounds_up():
    # 3 cycles at 66 MHz = 45.45... ns -> 46
    assert units.cycles_to_ns(3, 66.0) == 46
    assert units.cycles_to_ns(0, 66.0) == 0
    with pytest.raises(ValueError):
        units.cycles_to_ns(1, 0)


def test_transfer_time_ceil():
    # 1 byte at 1 GB/s = 1 ns exactly
    assert units.transfer_time_ns(1, 1_000_000_000) == 1
    # 10 bytes at 3 B/s -> ceil(3.33..s) in ns
    assert units.transfer_time_ns(10, 3) == math.ceil(10 / 3 * 1e9)
    with pytest.raises(ValueError):
        units.transfer_time_ns(-1, 10)
    with pytest.raises(ValueError):
        units.transfer_time_ns(1, 0)
