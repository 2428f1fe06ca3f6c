"""Differential tests: the algorithm graph's topological order against networkx.

networkx is a test-only dependency; these tests skip when it is absent.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dfg import WORD32, AlgorithmGraph

nx = pytest.importorskip("networkx")


@st.composite
def graph_specs(draw, cyclic=False):
    """Unique names in a random (hidden) rank order and edges along that order.

    Repeated pairs become parallel edges and unreferenced names isolated
    operations.  ``cyclic`` closes at least one cycle: an edge along the
    order plus one back, or a self-loop.
    """
    names = draw(st.lists(st.text("abxyz0", min_size=1, max_size=3), min_size=1, max_size=12, unique=True))
    index = st.integers(0, len(names) - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=30))
    edges = [(min(i, j), max(i, j)) for i, j in pairs if i != j]
    if cyclic:
        for i, j in draw(st.lists(st.tuples(index, index), min_size=1, max_size=3)):
            edges += [(i, j), (j, i)] if i != j else [(i, i)]
    return names, draw(st.permutations(edges))


def build(names, edges):
    g = AlgorithmGraph("generated")
    ops = [g.add_operation(name, "k") for name in names]
    for op in ops:
        op.add_output("o", WORD32)
    fan_in = Counter()
    for i, j in edges:
        port = f"i{fan_in[j]}"
        fan_in[j] += 1
        ops[j].add_input(port, WORD32)
        g.connect(ops[i], "o", ops[j], port)
    return g


def to_networkx(g):
    oracle = nx.MultiDiGraph()
    oracle.add_nodes_from(op.name for op in g.operations)
    oracle.add_edges_from((e.src.name, e.dst.name) for e in g.edges)
    return oracle


@settings(max_examples=300, deadline=None)
@given(graph_specs())
def test_topological_order_is_networkx_lexicographic_order(spec):
    g = build(*spec)
    assert g.is_acyclic()
    expected = list(nx.lexicographical_topological_sort(to_networkx(g)))
    assert [op.name for op in g.topological_order()] == expected


@settings(max_examples=100, deadline=None)
@given(graph_specs(cyclic=True))
def test_cycles_and_self_loops_are_rejected_like_networkx(spec):
    g = build(*spec)
    assert not nx.is_directed_acyclic_graph(to_networkx(g))
    assert g.is_acyclic() is False
    with pytest.raises(ValueError) as info:
        g.topological_order()
    assert str(info.value) == "graph 'generated' contains a dependency cycle"
