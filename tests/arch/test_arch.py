"""Tests for operators, media, architecture graphs and boards."""

import pickle

import pytest

from repro.arch import (
    ArchitectureError,
    ArchitectureGraph,
    Medium,
    MediumKind,
    Operator,
    OperatorKind,
    dual_region_board,
    sundance_board,
)
from repro.dfg.library import DSP_CLASS, FPGA_CLASS


def op(name, kind=OperatorKind.FPGA_STATIC, clock=50.0, device="xc2v2000", region=None):
    return Operator(name, kind, FPGA_CLASS, clock, device=device, region=region)


def test_operator_validation():
    with pytest.raises(ValueError, match="non-empty"):
        Operator("", OperatorKind.PROCESSOR, DSP_CLASS, 200, "c6201")
    with pytest.raises(ValueError, match="clock"):
        Operator("x", OperatorKind.PROCESSOR, DSP_CLASS, 0, "c6201")
    with pytest.raises(ValueError, match="must name its region"):
        op("d", OperatorKind.FPGA_DYNAMIC)
    with pytest.raises(ValueError, match="must not name a region"):
        op("f", OperatorKind.FPGA_STATIC, region="D1")


def test_operator_durations():
    o = op("f", clock=50.0)
    assert o.cycle_time_ns() == pytest.approx(20.0)
    assert o.duration_ns(100) == 2000
    assert o.duration_ns(3) == 60


def test_operator_flags():
    d = op("d", OperatorKind.FPGA_DYNAMIC, region="D1")
    assert d.is_reconfigurable and not d.is_processor
    p = Operator("p", OperatorKind.PROCESSOR, DSP_CLASS, 200, "c6201")
    assert p.is_processor and not p.is_reconfigurable


def test_medium_transfer_times():
    m = Medium("bus", MediumKind.BUS, bandwidth_mbps=100.0, latency_ns=500)
    assert m.transfer_ns(0) == 500
    # 1 MB at 100 MB/s = 10 ms = 10_000_000 ns, plus setup.
    assert m.transfer_ns(1_000_000) == 500 + 10_000_000


def test_medium_validation():
    with pytest.raises(ValueError):
        Medium("m", MediumKind.BUS, 0.0)
    with pytest.raises(ValueError):
        Medium("m", MediumKind.BUS, 10.0, latency_ns=-1)


def test_graph_duplicate_names_rejected():
    g = ArchitectureGraph()
    g.add_operator(op("x"))
    with pytest.raises(ArchitectureError):
        g.add_operator(op("x"))
    with pytest.raises(ArchitectureError):
        g.add_medium(Medium("x", MediumKind.BUS, 10))


def test_route_single_hop():
    g = ArchitectureGraph()
    a = g.add_operator(op("a"))
    b = g.add_operator(op("b"))
    bus = g.add_medium(Medium("bus", MediumKind.BUS, 100.0, 100))
    g.connect(a, bus)
    g.connect(b, bus)
    r = g.route("a", "b")
    assert [m.name for m in r.media] == ["bus"]
    assert r.transfer_ns(1000) == bus.transfer_ns(1000)


def test_route_local_is_free():
    g = ArchitectureGraph()
    g.add_operator(op("a"))
    r = g.route("a", "a")
    assert r.is_local
    assert r.transfer_ns(10**6) == 0


def test_route_multi_hop():
    g = ArchitectureGraph()
    for name in ("a", "b", "c"):
        g.add_operator(op(name))
    m1 = g.add_medium(Medium("m1", MediumKind.BUS, 100.0, 100))
    m2 = g.add_medium(Medium("m2", MediumKind.BUS, 50.0, 200))
    g.connect("a", "m1")
    g.connect("b", "m1")
    g.connect("b", "m2")
    g.connect("c", "m2")
    r = g.route("a", "c")
    assert [m.name for m in r.media] == ["m1", "m2"]
    assert r.transfer_ns(1000) == m1.transfer_ns(1000) + m2.transfer_ns(1000)


def test_route_missing_raises():
    g = ArchitectureGraph()
    g.add_operator(op("a"))
    g.add_operator(op("b"))
    with pytest.raises(ArchitectureError, match="no route"):
        g.route("a", "b")


def test_validate_detects_dangling_medium():
    g = ArchitectureGraph()
    a = g.add_operator(op("a"))
    m = g.add_medium(Medium("m", MediumKind.BUS, 10))
    g.connect(a, m)
    with pytest.raises(ArchitectureError, match="fewer than two"):
        g.validate()


def test_sundance_board_matches_paper():
    board = sundance_board()
    arch = board.architecture
    assert {o.name for o in arch.operators} == {"DSP", "F1", "D1"}
    assert {m.name for m in arch.media} == {"SHB", "IL"}
    assert board.dsp.name == "DSP"
    assert board.regions() == ["D1"]
    # DSP reaches D1 through SHB then IL (two hops).
    r = arch.route("DSP", "D1")
    assert [m.name for m in r.media] == ["SHB", "IL"]
    # FPGA device is the paper's XC2V2000.
    assert board.fpga_device_of("F1").name == "xc2v2000"
    assert board.fpga_device_of("D1").slices == 10_752


def test_fpga_device_lookup_fails_for_dsp():
    board = sundance_board()
    with pytest.raises(KeyError):
        board.fpga_device_of("DSP")


def test_dual_region_board():
    board = dual_region_board()
    assert board.regions() == ["D1", "D2"]
    # Both dynamic parts share the internal link.
    ops_on_il = {o.name for o in board.architecture.operators_on("IL")}
    assert {"F1", "D1", "D2"} <= ops_on_il


def test_board_operators_of_device():
    board = sundance_board()
    names = {o.name for o in board.architecture.operators_of_device("xc2v2000")}
    assert names == {"F1", "D1"}


def test_summary_text():
    board = sundance_board()
    text = board.architecture.summary()
    assert "DSP" in text and "SHB" in text and "IL" in text


def route_names(arch, src, dst):
    return [m.name for m in arch.route(src, dst).media]


def test_route_table_stays_out_of_pickles():
    arch = sundance_board(n_dynamic=2).architecture
    before = pickle.dumps(arch)
    first = arch.route("DSP", "D2")
    assert arch.route("DSP", "D2") is first  # answered from the table
    arch.route("D1", "D2")
    assert pickle.dumps(arch) == before


def test_device_neutral_after_route_gives_device_blank_routes():
    arch = sundance_board().architecture
    assert arch.route("DSP", "D1").src.device == "c6201"
    neutral = arch.device_neutral()
    route = neutral.route("DSP", "D1")
    assert route.src.device == "" and route.dst.device == ""
    assert route.src is neutral.operator("DSP")
    assert arch.route("DSP", "D1").src.device == "c6201"


def test_every_mutation_refreshes_routes():
    g = ArchitectureGraph()
    for name in ("a", "b", "c"):
        g.add_operator(op(name))
    g.add_medium(Medium("m1", MediumKind.BUS, 100.0, 100))
    g.add_medium(Medium("m2", MediumKind.BUS, 100.0, 100))
    g.connect("a", "m1")
    g.connect("b", "m1")
    g.connect("b", "m2")
    g.connect("c", "m2")
    assert route_names(g, "a", "c") == ["m1", "m2"]
    with pytest.raises(ArchitectureError, match="no operator"):
        g.route("a", "d")
    g.add_operator(op("d"))
    with pytest.raises(ArchitectureError, match="no route"):
        g.route("a", "d")
    g.add_medium(Medium("direct", MediumKind.BUS, 100.0, 100))
    assert route_names(g, "a", "c") == ["m1", "m2"]
    g.connect("a", "direct")
    g.connect("c", "direct")
    g.connect("d", "direct")
    assert route_names(g, "a", "c") == ["direct"]
    assert route_names(g, "a", "d") == ["direct"]


def test_unpickled_architecture_routes_like_the_original():
    arch = sundance_board(n_dynamic=3).architecture
    names = [o.name for o in arch.operators]
    routes = {(s, d): arch.route(s, d) for s in names for d in names}
    clone = pickle.loads(pickle.dumps(arch))
    for (s, d), route in routes.items():
        assert clone.route(s, d) == route


# Two parallel buses join s, r1 and r2, and each relay reaches t over its own
# link, so s -> r1 has two one-hop routes and s -> t four two-hop routes.
# Vertices are added against name order: a tie broken by insertion or hash
# order would show.
_TIE_SNIPPET = """
import json
from repro.arch import ArchitectureGraph, Medium, MediumKind, Operator, OperatorKind
from repro.arch.boards import Board
from repro.arch.io import dumps, loads
from repro.dfg.library import FPGA_CLASS

g = ArchitectureGraph("ties")
for name in ("t", "r2", "r1", "s"):
    g.add_operator(Operator(name, OperatorKind.FPGA_STATIC, FPGA_CLASS, 50.0, device="xc2v2000"))
for name in ("n2", "n1", "m2", "m1"):
    g.add_medium(Medium(name, MediumKind.BUS, 100.0, 100))
for o, m in (("r2", "n2"), ("t", "n2"), ("r1", "n1"), ("t", "n1")):
    g.connect(o, m)
for m in ("m2", "m1"):
    for o in ("r2", "r1", "s"):
        g.connect(o, m)
loaded = loads(dumps(Board("ties", g))).architecture
pairs = (("s", "r1"), ("s", "t"), ("t", "s"), ("r2", "r1"))
print(json.dumps([[[m.name for m in arch.route(a, b).media] for a, b in pairs] for arch in (g, loaded)]))
"""


def test_route_ties_go_to_the_first_name_sequence_under_any_hash_seed():
    import json
    import os
    import pathlib
    import subprocess
    import sys

    import repro

    src = pathlib.Path(repro.__file__).resolve().parents[1]
    expected = [["m1"], ["m1", "n1"], ["n1", "m1"], ["m1"]]
    for seed in range(4):
        proc = subprocess.run(
            [sys.executable, "-c", _TIE_SNIPPET],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": str(src)},
            check=True,
            timeout=120,
        )
        assert json.loads(proc.stdout) == [expected, expected], f"PYTHONHASHSEED={seed}"
