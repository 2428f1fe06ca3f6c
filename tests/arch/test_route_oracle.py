"""Differential tests: architecture routes and validation against networkx.

networkx is a test-only dependency; these tests skip when it is absent.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import ArchitectureError, ArchitectureGraph, Medium, MediumKind, Operator, OperatorKind
from repro.dfg.library import FPGA_CLASS

nx = pytest.importorskip("networkx")


@st.composite
def architectures(draw):
    """A bipartite graph: operators ``o*`` and media ``m*`` over random links."""
    suffixes = st.text("abc", min_size=1, max_size=2)
    operators = draw(st.lists(suffixes, min_size=1, max_size=7, unique=True))
    media = draw(st.lists(suffixes, max_size=5, unique=True))
    links = []
    if media:
        links = draw(st.lists(st.tuples(st.sampled_from(operators), st.sampled_from(media)), max_size=20))
    g = ArchitectureGraph("generated")
    for name in operators:
        g.add_operator(Operator("o" + name, OperatorKind.FPGA_STATIC, FPGA_CLASS, 50.0, device="xc2v2000"))
    for name in media:
        g.add_medium(Medium("m" + name, MediumKind.BUS, 100.0, 100))
    for o, m in links:
        g.connect("o" + o, "m" + m)
    return g


def to_networkx(arch):
    oracle = nx.Graph()
    oracle.add_nodes_from(o.name for o in arch.operators)
    oracle.add_nodes_from(m.name for m in arch.media)
    oracle.add_edges_from((o.name, m.name) for m in arch.media for o in arch.operators_on(m))
    return oracle


def media_on(arch, path):
    return [name for name in path if name in {m.name for m in arch.media}]


@settings(max_examples=200, deadline=None)
@given(architectures())
def test_routes_match_networkx(arch):
    oracle = to_networkx(arch)
    names = [o.name for o in arch.operators]
    for src in names:
        for dst in names:
            if src == dst:
                assert arch.route(src, dst).is_local
                continue
            if not nx.has_path(oracle, src, dst):
                with pytest.raises(ArchitectureError, match="no route"):
                    arch.route(src, dst)
                continue
            hops = [m.name for m in arch.route(src, dst).media]
            paths = list(nx.all_shortest_paths(oracle, src, dst))
            assert 2 * len(hops) == len(paths[0]) - 1
            # The documented tie rule: the first vertex-name sequence.
            assert hops == media_on(arch, min(paths))
            if len(paths) == 1:
                assert hops == media_on(arch, nx.shortest_path(oracle, src, dst))


def networkx_problems(arch):
    """What ``validate`` reported when it asked networkx for reachability."""
    oracle = to_networkx(arch)
    ops = [o.name for o in arch.operators]
    problems = [] if ops else ["architecture has no operators"]
    for m in arch.media:
        if len(arch.operators_on(m)) < 2:
            problems.append(f"medium {m.name!r} connects fewer than two operators")
    for other in ops[1:]:
        if not nx.has_path(oracle, ops[0], other):
            problems.append(f"operator {other!r} unreachable from {ops[0]!r}")
    return problems


@settings(max_examples=200, deadline=None)
@given(architectures())
def test_validate_messages_match_networkx_reachability(arch):
    problems = networkx_problems(arch)
    if not problems:
        arch.validate()
        return
    with pytest.raises(ArchitectureError) as info:
        arch.validate()
    assert str(info.value) == "; ".join(problems)
