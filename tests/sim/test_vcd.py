"""Tests for VCD trace export."""

import re


from repro.sim import Signal, Simulator, Trace
from repro.sim.vcd import _identifier, trace_to_vcd


def test_identifier_uniqueness():
    ids = [_identifier(i) for i in range(500)]
    assert len(set(ids)) == 500
    assert all(all(33 <= ord(c) <= 126 for c in i) for i in ids)


def add_span(tr, actor, kind, start, end):
    tr.begin(start, actor, kind)
    tr.end(end, actor, kind)


def make_trace():
    tr = Trace()
    add_span(tr, "op.F1", "compute", 10, 50)
    add_span(tr, "op.F1", "compute", 60, 90)
    add_span(tr, "port.icap", "reconfig", 20, 70)
    return tr


def test_vcd_structure():
    vcd = trace_to_vcd(make_trace())
    assert "$timescale 1 ns $end" in vcd
    assert "$enddefinitions $end" in vcd
    assert "op.F1.compute" in vcd
    assert "port.icap.reconfig" in vcd
    # Time markers are monotone.
    times = [int(m.group(1)) for m in re.finditer(r"^#(\d+)$", vcd, re.MULTILINE)]
    assert times == sorted(times)


def test_vcd_span_toggles():
    vcd = trace_to_vcd(make_trace())
    # Find the id of the compute wire.
    m = re.search(r"\$var wire 1 (\S+) op\.F1\.compute \$end", vcd)
    assert m
    wid = re.escape(m.group(1))
    rises = re.findall(rf"^1{wid}$", vcd, re.MULTILINE)
    falls = re.findall(rf"^0{wid}$", vcd, re.MULTILINE)
    assert len(rises) == 2  # two disjoint busy intervals
    assert len(falls) == 3  # initial 0 plus two span ends


def test_vcd_merges_overlapping_spans():
    tr = Trace()
    add_span(tr, "x", "compute", 0, 50)
    add_span(tr, "x", "compute", 40, 80)
    vcd = trace_to_vcd(tr)
    m = re.search(r"\$var wire 1 (\S+) x\.compute \$end", vcd)
    wid = re.escape(m.group(1))
    rises = re.findall(rf"^1{wid}$", vcd, re.MULTILINE)
    assert len(rises) == 1  # merged into one interval


def test_vcd_includes_signals():
    sim = Simulator()
    sig = Signal(sim, value=False, name="In_Reconf")

    def proc():
        yield sim.timeout(100)
        sig.set(True)
        yield sim.timeout(50)
        sig.set(False)

    sim.process(proc())
    sim.run()
    vcd = trace_to_vcd(Trace(), signals={"In_Reconf.D1": sig})
    assert "In_Reconf.D1" in vcd
    assert "#100" in vcd and "#150" in vcd


def test_runtime_result_vcd_export():
    from repro.flows import DesignFlow, SystemSimulation, parse_constraints
    from repro.mccdma import Modulation
    from repro.mccdma.casestudy import build_mccdma_design

    constraints = """
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
    design = build_mccdma_design()
    flow = DesignFlow.from_design(
        design, dynamic_constraints=parse_constraints(constraints)
    ).run()
    plan = [Modulation.QPSK, Modulation.QAM16] * 2
    result = SystemSimulation(
        flow, n_iterations=len(plan),
        selector_values={"modulation": lambda it: plan[it]},
    ).run()
    vcd = result.to_vcd(design_name="mccdma")
    assert "$scope module mccdma $end" in vcd
    assert "In_Reconf.D1" in vcd
    assert "port.icap.reconfig" in vcd
    # In_Reconf toggles once per load.
    m = re.search(r"\$var wire 1 (\S+) In_Reconf\.D1 \$end", vcd)
    wid = re.escape(m.group(1))
    rises = re.findall(rf"^1{wid}$", vcd, re.MULTILINE)
    assert len(rises) == result.switches
