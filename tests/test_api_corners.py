"""Mop-up coverage of API corners not exercised elsewhere."""

import pytest

from repro.aaa import MappingConstraints, SynDExScheduler, adequate
from repro.arch import sundance_board
from repro.dfg import AlgorithmGraph, WORD32
from repro.dfg.generators import chain_graph
from repro.dfg.library import default_library
from repro.sim import Resource, Simulator, Trace


def test_resource_use_helper():
    sim = Simulator()
    res = Resource(sim, name="bus")
    order = []

    def user(tag):
        yield sim.process(res.use(10))
        order.append((tag, sim.now))

    sim.process(user("a"))
    sim.process(user("b"))
    sim.run()
    assert order == [("a", 10), ("b", 20)]


def test_gantt_empty_trace():
    assert Trace().gantt() == "(empty trace)"


def test_library_kinds_listing():
    lib = default_library()
    kinds = lib.kinds()
    assert kinds == sorted(kinds)
    assert "qpsk_mod" in kinds


def test_route_and_operator_str():
    board = sundance_board()
    arch = board.architecture
    route = arch.route("DSP", "F1")
    assert "SHB" in str(route)
    local = arch.route("DSP", "DSP")
    assert "(local)" in str(local)
    assert "D1" in str(arch.operator("D1"))
    assert "MB/s" in str(arch.medium("SHB"))


def test_adequation_report_and_schedule_table():
    result = adequate(
        chain_graph(3), sundance_board().architecture, default_library(),
        scheduler=SynDExScheduler,
    )
    report = result.report()
    assert "Adequation by SynDExScheduler" in report
    assert "operator" in report
    assert result.throughput_iterations_per_s() > 0


def test_empty_schedule_throughput_infinite():
    from repro.aaa.adequation import AdequationResult
    from repro.aaa.costs import CostModel
    from repro.aaa.schedule import Schedule

    g = AlgorithmGraph("empty-ish")
    g.add_operation("only", "generic_small")
    board = sundance_board()
    costs = CostModel(g, board.architecture, default_library())
    result = AdequationResult(schedule=Schedule(), costs=costs, scheduler_name="x")
    assert result.throughput_iterations_per_s() == float("inf")


def test_schedule_placement_missing_raises():
    result = adequate(
        chain_graph(3), sundance_board().architecture, default_library(),
        scheduler=SynDExScheduler,
    )
    with pytest.raises(KeyError):
        result.schedule.placement("ghost")


def test_mapping_constraints_len_and_chaining():
    mc = MappingConstraints().pin("a", "DSP").forbid("b", "F1").forbid("b", "DSP")
    assert len(mc) == 3


def test_condition_group_case_of_missing():
    g = AlgorithmGraph("t")
    sel = g.add_operation("sel", "select_source")
    sel.add_output("v", WORD32, 1)
    grp = g.condition_group("g", sel, "v")
    a = g.add_operation("a", "k")
    grp.add_case(0, [a])
    assert grp.case_of(0) == [a]
    with pytest.raises(KeyError):
        grp.case_of(1)
    with pytest.raises(ValueError):
        grp.add_case(0, [g.add_operation("b", "k")])


def test_operation_byte_accounting():
    from repro.dfg import BIT, Operation

    op = Operation("x", "k")
    op.add_input("i", BIT, 12)
    op.add_output("o", BIT, 20)
    assert op.input_bytes() == 2
    assert op.output_bytes() == 3
    assert not op.is_source and not op.is_sink


def test_netlist_boundary_helpers():
    from repro.fabric import Netlist, NetlistModule, ResourceVector
    from repro.fabric.netlist import NetlistPort

    nl = Netlist("top")
    nl.add_module(
        NetlistModule(
            name="m",
            resources=ResourceVector(luts=1),
            ports=[NetlistPort("a", 8, "in"), NetlistPort("b", 4, "out")],
        )
    )
    assert nl.module("m").boundary_bits == 12
    with pytest.raises(KeyError):
        nl.module("m").port("zzz")
    assert nl.total_resources().luts == 1


def test_floorplan_whole_device_region_has_no_boundary():
    from repro.fabric import Floorplan, FloorplanError, XC2V2000

    plan = Floorplan(XC2V2000)
    plan.place("D1", 0, XC2V2000.clb_cols)
    with pytest.raises(FloorplanError, match="whole device"):
        plan.boundary_column("D1")


def test_units_to_seconds():
    from repro.sim import units

    assert units.to_seconds(units.seconds(2.5)) == pytest.approx(2.5)
    assert units.to_us(units.us(7)) == pytest.approx(7.0)


def test_executive_program_render_covers_all_instructions():
    from repro.executive.macrocode import (
        ComputeInstr,
        ExecutiveProgram,
        RecvInstr,
        ReconfigureInstr,
        SendInstr,
        TransferInstr,
    )

    program = ExecutiveProgram(
        operator_code={
            "A": [
                ComputeInstr(op_name="x", kind="k", duration_ns=5, decides_group="g"),
                SendInstr(edge_id="e", size_bytes=4, condition_group="g", condition_value=1),
                RecvInstr(edge_id="f", size_bytes=4),
                ReconfigureInstr(region="D1", module="m"),
            ]
        },
        medium_code={"M": [TransferInstr(edge_id="e", hop=0, size_bytes=4, duration_ns=2)]},
    )
    text = program.render()
    for token in ("compute_", "send_", "recv_", "reconfigure_", "transfer_", "decides(g)", "when g==1"):
        assert token in text
