"""Tests for the algorithm graph, operations and conditioning."""

import pickle

import pytest

from repro.dfg import AlgorithmGraph, GraphValidationError, Operation, WORD32, validate_graph
from repro.dfg.library import default_library


def simple_chain():
    g = AlgorithmGraph("t")
    a = g.add_operation("a", "generic_small")
    a.add_output("o", WORD32, 4)
    b = g.add_operation("b", "generic_small")
    b.add_input("i", WORD32, 4)
    b.add_output("o", WORD32, 4)
    c = g.add_operation("c", "generic_small")
    c.add_input("i", WORD32, 4)
    g.connect(a, "o", b, "i")
    g.connect(b, "o", c, "i")
    return g


def test_operation_requires_name_and_kind():
    with pytest.raises(ValueError):
        Operation(name="", kind="x")
    with pytest.raises(ValueError):
        Operation(name="x", kind="")


def test_duplicate_port_rejected():
    op = Operation("x", "generic_small")
    op.add_input("i", WORD32)
    with pytest.raises(ValueError):
        op.add_output("i", WORD32)


def test_duplicate_operation_rejected():
    g = AlgorithmGraph()
    g.add_operation("x", "k")
    with pytest.raises(ValueError):
        g.add_operation("x", "k")


def test_connect_validates_ports():
    g = AlgorithmGraph()
    a = g.add_operation("a", "k")
    a.add_output("o", WORD32, 4)
    b = g.add_operation("b", "k")
    b.add_input("i", WORD32, 8)  # token mismatch
    with pytest.raises(ValueError, match="incompatible"):
        g.connect(a, "o", b, "i")


def test_connect_direction_enforced():
    g = AlgorithmGraph()
    a = g.add_operation("a", "k")
    a.add_output("o", WORD32)
    b = g.add_operation("b", "k")
    b.add_input("i", WORD32)
    with pytest.raises(ValueError, match="not an output"):
        g.connect(a, "o", b, "i") if False else g.connect("b", "i", "a", "o")


def test_input_single_driver():
    g = AlgorithmGraph()
    a = g.add_operation("a", "k")
    a.add_output("o", WORD32)
    a2 = g.add_operation("a2", "k")
    a2.add_output("o", WORD32)
    b = g.add_operation("b", "k")
    b.add_input("i", WORD32)
    g.connect(a, "o", b, "i")
    with pytest.raises(ValueError, match="already driven"):
        g.connect(a2, "o", b, "i")


def test_foreign_operation_rejected():
    g = AlgorithmGraph()
    stranger = Operation("s", "k")
    stranger.add_output("o", WORD32)
    with pytest.raises(KeyError):
        g.out_edges(stranger)


def test_topological_order_and_queries():
    g = simple_chain()
    order = [op.name for op in g.topological_order()]
    assert order == ["a", "b", "c"]
    assert [o.name for o in g.sources()] == ["a"]
    assert [o.name for o in g.sinks()] == ["c"]
    assert [o.name for o in g.predecessors("b")] == ["a"]
    assert [o.name for o in g.successors("b")] == ["c"]
    assert g.in_edges("b")[0].size_bytes == 16


def test_critical_path_length():
    g = simple_chain()
    assert g.critical_path_length(lambda op: 10) == 30


def test_validate_passes_on_good_graph():
    g = simple_chain()
    validate_graph(g)  # no raise


def test_validate_rejects_undriven_input():
    g = AlgorithmGraph()
    b = g.add_operation("b", "k")
    b.add_input("i", WORD32)
    with pytest.raises(GraphValidationError, match="not driven"):
        validate_graph(g)


def test_validate_rejects_empty_graph():
    with pytest.raises(GraphValidationError, match="no operations"):
        validate_graph(AlgorithmGraph())


def test_validate_library_coverage():
    g = simple_chain()
    lib = default_library()
    validate_graph(g, lib)  # generic_small is characterized
    g.add_operation("weird", "not_a_kind")
    with pytest.raises(GraphValidationError, match="not characterized"):
        validate_graph(g, lib)


def test_condition_group_exclusivity():
    g = AlgorithmGraph()
    sel = g.add_operation("sel", "select_source")
    sel.add_output("v", WORD32, 1)
    src = g.add_operation("src", "k")
    src.add_output("o0", WORD32, 4)
    src.add_output("o1", WORD32, 4)
    sink = g.add_operation("sink", "k")
    sink.add_input("i0", WORD32, 4)
    sink.add_input("i1", WORD32, 4)
    alts = []
    for i in range(2):
        alt = g.add_operation(f"alt{i}", "k")
        alt.add_input("i", WORD32, 4)
        alt.add_output("o", WORD32, 4)
        g.connect(src, f"o{i}", alt, "i")
        g.connect(alt, "o", sink, f"i{i}")
        alts.append(alt)
    group = g.condition_group("mod", sel, "v")
    group.add_case("qpsk", [alts[0]])
    group.add_case("qam16", [alts[1]])

    assert g.exclusive(alts[0], alts[1])
    assert not g.exclusive(alts[0], src)
    assert group.alternatives_of(alts[0]) == [alts[1]]
    assert alts[0].condition.group == "mod"
    assert alts[0].is_conditioned and not src.is_conditioned


def test_condition_group_rejects_double_membership():
    g = AlgorithmGraph()
    sel = g.add_operation("sel", "select_source")
    sel.add_output("v", WORD32, 1)
    op = g.add_operation("x", "k")
    grp = g.condition_group("g1", sel, "v")
    grp.add_case(0, [op])
    grp2 = g.condition_group("g2", sel, "v")
    with pytest.raises(ValueError, match="already conditioned"):
        grp2.add_case(1, [op])


def test_condition_group_interface_mismatch_detected():
    g = AlgorithmGraph()
    sel = g.add_operation("sel", "select_source")
    sel.add_output("v", WORD32, 1)
    src = g.add_operation("src", "k")
    src.add_output("o0", WORD32, 4)
    src.add_output("o1", WORD32, 8)
    a = g.add_operation("a", "k")
    a.add_input("i", WORD32, 4)
    b = g.add_operation("b", "k")
    b.add_input("i", WORD32, 8)  # different token count -> mismatched interface
    g.connect(src, "o0", a, "i")
    g.connect(src, "o1", b, "i")
    grp = g.condition_group("m", sel, "v")
    grp.add_case(0, [a])
    grp.add_case(1, [b])
    with pytest.raises(GraphValidationError, match="differing port interfaces"):
        validate_graph(g)


def test_cycle_detection():
    g = AlgorithmGraph()
    a = g.add_operation("a", "k")
    a.add_input("i", WORD32)
    a.add_output("o", WORD32)
    b = g.add_operation("b", "k")
    b.add_input("i", WORD32)
    b.add_output("o", WORD32)
    g.connect(a, "o", b, "i")
    g.connect(b, "o", a, "i")
    assert not g.is_acyclic()
    with pytest.raises(GraphValidationError, match="cycle"):
        validate_graph(g)
    with pytest.raises(ValueError, match="cycle"):
        g.topological_order()


def test_summary_mentions_operations():
    g = simple_chain()
    text = g.summary()
    assert "a (generic_small)" in text and "3 operations" in text


def order_names(g):
    return [op.name for op in g.topological_order()]


def test_topological_order_is_a_copy_and_stays_out_of_pickles():
    g = simple_chain()
    before = pickle.dumps(g)
    order = g.topological_order()
    order.reverse()
    assert order_names(g) == ["a", "b", "c"]
    assert pickle.dumps(g) == before
    assert order_names(pickle.loads(before)) == order_names(g)


def test_topological_order_follows_every_mutation():
    g = AlgorithmGraph("m")
    a = g.add_operation("a", "generic_small")
    a.add_output("o", WORD32, 4)
    b = g.add_operation("b", "generic_small")
    b.add_input("i", WORD32, 4)
    b.add_output("o", WORD32, 4)
    assert order_names(g) == ["a", "b"]
    z = g.add(Operation(name="0", kind="generic_small"))
    z.add_input("i", WORD32, 4)
    assert order_names(g) == ["0", "a", "b"]
    edge = g.connect(b, "o", z, "i")
    assert order_names(g) == ["a", "b", "0"]
    g.disconnect(edge)
    assert order_names(g) == ["0", "a", "b"]
