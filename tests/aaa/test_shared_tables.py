"""Cost models that share their memos and scheduling tables.

:meth:`CostModel.with_latencies` gives every derived model the base's
duration, candidate, best-duration and route memos and the schedulers'
latency-free tables (tail ranks, successor map, hop lists).  A schedule on
a derived model must equal the schedule on a fresh model with the same
latencies, whatever the other models sharing those tables scheduled first;
and nothing shared may reach a pickle.
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aaa import adequate
from repro.aaa.costs import CostModel
from repro.aaa.mapping import MappingConstraints
from repro.arch import sundance_board
from repro.dfg.generators import conditioned_chain_graph, layered_random_graph, multiregion_graph
from repro.dfg.library import default_library

LIBRARY = default_library()

#: the pickled state of a CostModel, keys in order
STATE_KEYS = [
    "graph",
    "architecture",
    "library",
    "reconfig_ns",
    "_route_cache",
    "_duration_cache",
    "_best_duration_cache",
    "_candidates_cache",
]

graphs = st.one_of(
    st.builds(multiregion_graph, n_groups=st.integers(1, 3), alternatives=st.integers(2, 3)),
    st.builds(conditioned_chain_graph, length=st.integers(3, 6), alternatives=st.integers(2, 3)),
    st.builds(
        layered_random_graph,
        layers=st.integers(2, 4),
        width=st.integers(1, 3),
        seed=st.integers(0, 999),
    ),
)


def facts(result) -> tuple:
    schedule = result.schedule
    return (
        [(s.op.name, s.operator.name, s.start, s.end) for s in schedule.ops],
        [(str(t.edge), t.medium.name, t.start, t.end, t.hop) for t in schedule.transfers],
        [
            (r.operator.name, r.module, r.condition_value, r.start, r.end, r.prefetched)
            for r in schedule.reconfigs
        ],
        result.makespan_ns,
        result.scheduler_stats,
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph=graphs, n_dynamic=st.integers(1, 5), data=st.data())
def test_shared_tables_schedule_like_fresh_models(graph, n_dynamic, data):
    architecture = sundance_board(n_dynamic=n_dynamic).architecture
    regions = [f"D{i}" for i in range(1, n_dynamic + 1)]
    base = CostModel(graph, architecture, LIBRARY)
    # pins move producers between operators from one run to the next, so
    # an edge's hop list is looked up for several source operators
    hosts = {op.name: sorted(p.name for p in base.candidates(op)) for op in graph.operations}
    for _ in range(3):
        latencies = data.draw(
            st.dictionaries(st.sampled_from(regions), st.integers(0, 8_000_000)), "latencies"
        )
        pins = {
            name: data.draw(st.sampled_from(names), name)
            for name, names in hosts.items()
            if data.draw(st.booleans(), f"pin {name}")
        }
        prefetch = data.draw(st.booleans(), "prefetch")

        def run(costs):
            constraints = MappingConstraints()
            for op, host in pins.items():
                constraints.pin(op, host)
            return adequate(
                graph, architecture, LIBRARY, constraints=constraints, costs=costs, prefetch=prefetch
            )

        shared = run(base.with_latencies(latencies))
        fresh = run(CostModel(graph, architecture, LIBRARY, reconfig_ns=latencies))
        assert facts(shared) == facts(fresh)
    # the derived models built their tables once, on the base
    assert {"hops", "successors", "tail_ranks"} <= set(base.tables)


def test_derived_models_share_memos_but_not_latencies():
    graph = multiregion_graph(2, 2)
    architecture = sundance_board(n_dynamic=2).architecture
    base = CostModel(graph, architecture, LIBRARY, reconfig_ns={"D1": 5})
    derived = base.with_latencies({"D2": 7})
    assert derived.reconfig_ns == {"D2": 7} and base.reconfig_ns == {"D1": 5}
    derived.set_reconfiguration_ns("D1", 9)
    assert base.reconfig_ns == {"D1": 5}
    assert derived.tables is base.tables
    assert derived._duration_cache is base._duration_cache


def test_pickled_model_keeps_its_format_and_drops_shared_state():
    graph = multiregion_graph(2, 2)
    architecture = sundance_board(n_dynamic=2).architecture
    base = CostModel(graph, architecture, LIBRARY)
    result = adequate(graph, architecture, LIBRARY, costs=base.with_latencies({"D1": 3_000_000}))
    assert result.costs.tables and result.costs._duration_cache
    state = result.costs.__getstate__()
    assert list(state) == STATE_KEYS
    assert all(state[key] == {} for key in STATE_KEYS[4:])
    fresh = adequate(graph, architecture, LIBRARY, reconfig_ns={"D1": 3_000_000})
    assert pickle.dumps(result) == pickle.dumps(fresh)
    revived = pickle.loads(pickle.dumps(result.costs))
    assert revived.tables == {}
    again = adequate(revived.graph, revived.architecture, revived.library, costs=revived)
    assert again.schedule.digest() == fresh.schedule.digest()


def test_adequate_rejects_a_model_of_something_else():
    graph = multiregion_graph(2, 2)
    architecture = sundance_board(n_dynamic=2).architecture
    other = CostModel(multiregion_graph(2, 2), architecture, LIBRARY)
    with pytest.raises(ValueError, match="costs must model"):
        adequate(graph, architecture, LIBRARY, costs=other)
    own = CostModel(graph, architecture, LIBRARY)
    with pytest.raises(ValueError, match="latencies"):
        adequate(graph, architecture, LIBRARY, costs=own, reconfig_ns={"D1": 1})
