"""A sim :class:`Trace` reads back as ``clock="sim"`` spans of the obs model."""

import itertools

import repro.sim.trace as trace_module
from repro.obs import Tracer, use_tracer
from repro.sim import Trace


def make_trace(scope: str = "") -> Trace:
    trace = Trace(scope=scope)
    trace.begin(0, "op.fft", "compute", detail="fft8")
    trace.end(4_000, "op.fft", "compute")
    trace.begin(1_000, "region.D1", "load", detail="qam16")
    trace.end(3_000, "region.D1", "load")
    trace.begin(3_000, "region.D1", "resident", detail="qam16")
    trace.end(9_000, "region.D1", "resident")
    return trace


def test_spans_run_on_the_sim_clock():
    spans = make_trace().spans
    assert len(spans) == 3
    assert all(s.clock == "sim" for s in spans)
    compute = next(s for s in spans if s.name == "compute:fft8")
    assert compute.track == "op.fft"
    assert compute.start_ns == 0 and compute.duration_ns == 4_000
    assert compute.attributes == {"actor": "op.fft", "kind": "compute", "detail": "fft8"}


def test_spans_parent_under_the_span_current_at_creation():
    tracer = Tracer()
    with use_tracer(tracer), tracer.span("runtime:simulate") as parent:
        trace = make_trace()
    spans = trace.spans
    assert {s.context.trace_id for s in spans} == {parent.context.trace_id}
    assert {s.context.parent_id for s in spans} == {parent.context.span_id}


def test_without_a_current_span_a_trace_takes_a_fresh_trace_id():
    first, second = make_trace().spans, make_trace().spans
    assert all(s.context.parent_id is None for s in first + second)
    assert len({s.context.trace_id for s in first}) == 1
    assert first[0].context.trace_id != second[0].context.trace_id


def test_process_is_the_scope():
    assert {s.process for s in make_trace(scope="b0007").spans} == {"b0007"}
    assert {s.process for s in make_trace().spans} == {"sim"}


def test_region_spans_expose_region_and_module():
    spans = make_trace().spans
    resident = next(s for s in spans if s.name == "resident:qam16")
    assert resident.attributes["region"] == "D1"
    assert resident.attributes["module"] == "qam16"
    compute = next(s for s in spans if s.name == "compute:fft8")
    assert "region" not in compute.attributes


def test_span_ids_unique_across_traces():
    first, second = make_trace().spans, make_trace().spans
    assert len({s.context.span_id for s in first + second}) == 6
    assert first == second  # identity is not content: equal runs compare equal


def test_span_ids_unique_across_worker_processes(monkeypatch):
    """Every sweep worker counts its traces from 1: the ids stay apart
    because they extend the parent span's, which carries the worker prefix."""
    spans = []
    for prefix in ("w1-", "w2-"):
        monkeypatch.setattr(trace_module, "_TRACE_SEQ", itertools.count(1))
        tracer = Tracer(trace_id="t", span_id_prefix=prefix)
        with use_tracer(tracer), tracer.span("job"):
            spans += make_trace().spans
    assert len({s.context.span_id for s in spans}) == 6


def test_spans_include_intervals_closed_after_an_earlier_read():
    trace = make_trace()
    first = list(trace.spans)
    trace.begin(9_000, "region.D1", "prefetch", detail="qpsk")
    trace.close_open(12_000)
    spans = trace.spans
    assert spans[:3] == first and spans[0] is first[0]
    assert [s.name for s in spans[3:]] == ["prefetch:qpsk"]
    assert spans[3].end_ns == 12_000
    assert len({s.context.span_id for s in spans}) == 4
