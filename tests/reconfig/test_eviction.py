"""Eviction policies and the manager's multi-slot region area."""

import pytest

from repro.reconfig import (
    BeladyEviction,
    BitstreamStore,
    ICAP_V2,
    LFUEviction,
    LRUEviction,
    ProtocolConfigurationBuilder,
    ReconfigError,
    ReconfigurationManager,
    make_eviction,
)
from repro.sim import Simulator


# -- policy units -----------------------------------------------------------


def test_lru_evicts_least_recently_demanded():
    lru = LRUEviction()
    for m in ("a", "b", "c"):
        lru.on_demand("R", m)
        lru.on_insert("R", m)
    lru.on_demand("R", "a")  # refresh a
    assert lru.choose_victim("R", ["a", "b", "c"]) == "b"
    lru.on_evict("R", "b")
    assert lru.choose_victim("R", ["a", "c"]) == "c"


def test_lru_never_seen_module_goes_first():
    lru = LRUEviction()
    lru.on_demand("R", "hot")
    assert lru.choose_victim("R", ["hot", "cold"]) == "cold"


def test_lfu_evicts_least_frequent_with_name_tiebreak():
    lfu = LFUEviction()
    for _ in range(3):
        lfu.on_demand("R", "a")
    lfu.on_demand("R", "b")
    lfu.on_demand("R", "c")
    # b and c tie on frequency; the name breaks the tie deterministically.
    assert lfu.choose_victim("R", ["a", "b", "c"]) == "b"


def test_belady_evicts_farthest_next_use():
    belady = BeladyEviction({"R": ["a", "b", "a", "c", "b"]})
    belady.on_demand("R", "a")  # cursor -> 1
    # Next uses: b at 1, a at 2, c at 3 -> c is farthest among a/b/c? No:
    # candidates a, b: a next at 2, b next at 1 -> evict a.
    assert belady.choose_victim("R", ["a", "b"]) == "a"
    belady.on_demand("R", "b")  # cursor -> 2
    belady.on_demand("R", "a")  # cursor -> 3
    # Remaining future: c at 3, b at 4; a never again -> a goes first.
    assert belady.choose_victim("R", ["a", "b", "c"]) == "a"


def test_belady_resyncs_on_out_of_schedule_demand():
    belady = BeladyEviction({"R": ["a", "b", "c"]})
    belady.on_demand("R", "b")  # not the scheduled 'a': cursor resyncs past b
    # Future is now just c; a and b never recur -> name tie-break, b > a.
    assert belady.choose_victim("R", ["a", "b"]) == "b"


def test_make_eviction_factory():
    assert make_eviction("lru").name == "lru"
    assert make_eviction("lfu").name == "lfu"
    assert make_eviction("belady", future={"R": ["a"]}).name == "belady"
    with pytest.raises(ValueError, match="future demand schedule"):
        make_eviction("belady")
    with pytest.raises(ValueError, match="unknown eviction policy"):
        make_eviction("random")


# -- manager integration ----------------------------------------------------


MODULES = ("m0", "m1", "m2")


def make_multislot_manager(slots=2, eviction=None):
    sim = Simulator()
    store = BitstreamStore(bandwidth_bytes_per_s=22_000_000, access_ns=1_000)
    for module in MODULES:
        store.register("D1", module, 44_000)
    builder = ProtocolConfigurationBuilder(sim, ICAP_V2, store)
    mgr = ReconfigurationManager(
        sim, builder, request_latency_ns=1_000,
        region_slots=slots, eviction=eviction,
    )
    return sim, mgr


def drive(sim, gen):
    p = sim.process(gen)
    sim.run(until=p)


def test_region_slots_must_be_positive():
    sim = Simulator()
    store = BitstreamStore()
    store.register("D1", "m0", 1_000)
    builder = ProtocolConfigurationBuilder(sim, ICAP_V2, store)
    with pytest.raises(ReconfigError, match="region_slots"):
        ReconfigurationManager(sim, builder, region_slots=0)


def test_resident_module_hits_without_port_traffic():
    sim, mgr = make_multislot_manager(slots=2)

    def proc():
        yield mgr.ensure_loaded("D1", "m0")
        yield mgr.ensure_loaded("D1", "m1")
        t_before = sim.now
        yield mgr.ensure_loaded("D1", "m0")  # still resident: instant switch
        assert sim.now == t_before

    drive(sim, proc())
    assert mgr.stats.demand_loads == 2
    assert mgr.stats.resident_hits == 1
    assert mgr.stats.evictions == 0
    assert mgr.loaded_module("D1") == "m0"


def test_overflow_evicts_with_policy_and_counts():
    lru = LRUEviction()
    sim, mgr = make_multislot_manager(slots=2, eviction=lru)

    def proc():
        yield mgr.ensure_loaded("D1", "m0")
        yield mgr.ensure_loaded("D1", "m1")
        yield mgr.ensure_loaded("D1", "m2")  # area full: m0 is LRU, evicted
        yield mgr.ensure_loaded("D1", "m0")  # must reload -> a real load

    drive(sim, proc())
    assert mgr.stats.evictions == 2  # m0 evicted, then m1 evicted for m0
    assert mgr.stats.demand_loads == 4
    assert mgr.stats.resident_hits == 0


def test_single_slot_defaults_keep_legacy_counters_zero():
    sim, mgr = make_multislot_manager(slots=1)

    def proc():
        yield mgr.ensure_loaded("D1", "m0")
        yield mgr.ensure_loaded("D1", "m1")
        yield mgr.ensure_loaded("D1", "m0")

    drive(sim, proc())
    # The exclusive-region model never reports multi-slot activity.
    assert mgr.stats.resident_hits == 0
    assert mgr.stats.evictions == 0
    assert mgr.stats.demand_loads == 3


def test_belady_beats_lru_on_a_loop_over_three_modules():
    """Cyclic demand over 3 modules with 2 slots: LRU always evicts the
    module needed next (worst case); Belady keeps one stable resident."""
    pattern = [f"m{i % 3}" for i in range(12)]

    def run(eviction):
        sim, mgr = make_multislot_manager(slots=2, eviction=eviction)

        def proc():
            for module in pattern:
                yield mgr.ensure_loaded("D1", module)

        drive(sim, proc())
        return mgr.stats

    lru_stats = run(LRUEviction())
    belady_stats = run(BeladyEviction({"D1": list(pattern)}))
    assert belady_stats.resident_hits > lru_stats.resident_hits
    assert belady_stats.stall_ns < lru_stats.stall_ns


def test_stats_to_dict_tracks_dataclass_fields():
    sim, mgr = make_multislot_manager()
    payload = mgr.stats.to_dict()
    import dataclasses

    assert set(payload) == {f.name for f in dataclasses.fields(type(mgr.stats))}


def test_evict_trace_records_victims():
    """A traced two-slot region evicts its LRU resident on the third load."""
    from repro.sim import Trace

    sim = Simulator()
    trace = Trace()
    store = BitstreamStore(bandwidth_bytes_per_s=22_000_000, access_ns=1_000)
    for module in MODULES:
        store.register("D1", module, 44_000)
    builder = ProtocolConfigurationBuilder(sim, ICAP_V2, store, trace=trace)
    mgr = ReconfigurationManager(
        sim, builder, request_latency_ns=1_000, trace=trace,
        region_slots=2, eviction=LRUEviction(),
    )

    def proc():
        yield mgr.ensure_loaded("D1", "m0")
        yield mgr.ensure_loaded("D1", "m1")
        yield mgr.ensure_loaded("D1", "m2")

    drive(sim, proc())
    assert mgr.export_state()["regions"]["D1"]["resident"] == ["m1", "m2"]
    assert mgr.stats.evictions == 1
