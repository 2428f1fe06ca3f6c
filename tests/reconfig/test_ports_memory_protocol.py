"""Tests for port models, the bitstream store and the protocol builder."""

import pytest

from repro.fabric import XC2V2000, generate_partial_bitstream
from repro.fabric.floorplan import ModulePlacement
from repro.reconfig import (
    BitstreamStore,
    ICAP_V2,
    JTAG,
    PortError,
    ProtocolConfigurationBuilder,
    ProtocolError,
    SELECTMAP_66,
    StoreError,
)
from repro.reconfig.ports import ConfigPort
from repro.sim import Simulator, Trace
from repro.sim.units import to_ms


PLACEMENT = ModulePlacement("D1", 44, 4)


def test_port_bandwidths():
    assert ICAP_V2.bytes_per_second == pytest.approx(66e6)
    assert SELECTMAP_66.bytes_per_second == pytest.approx(66e6)
    assert JTAG.bytes_per_second == pytest.approx(33e6 / 8)


def test_port_write_time():
    # 66 bytes at 66 MB/s = 1 us + setup.
    assert ICAP_V2.write_ns(66) == 500 + 1_000
    assert ICAP_V2.write_ns(0) == 500


def test_port_validation():
    with pytest.raises(PortError):
        ConfigPort("bad", 7, 66.0)
    with pytest.raises(PortError):
        ConfigPort("bad", 8, 0.0)
    with pytest.raises(PortError):
        ICAP_V2.write_ns(-1)


def test_store_register_and_read_time():
    store = BitstreamStore(bandwidth_bytes_per_s=22_000_000, access_ns=1_000)
    store.register("D1", "qpsk", 88_000)
    entry = store.get("D1", "qpsk")
    assert entry.size_bytes == 88_000
    # 88 KB at 22 MB/s = 4 ms.
    assert to_ms(store.read_ns("D1", "qpsk")) == pytest.approx(4.0, rel=0.01)


def test_store_accepts_bitstream_objects():
    store = BitstreamStore()
    bs = generate_partial_bitstream(XC2V2000, PLACEMENT, "qpsk")
    entry = store.register("D1", "qpsk", bs)
    assert entry.size_bytes == bs.size_bytes
    assert entry.verify()


def test_store_duplicate_and_missing():
    store = BitstreamStore()
    store.register("D1", "a", 100)
    with pytest.raises(StoreError):
        store.register("D1", "a", 100)
    with pytest.raises(StoreError):
        store.get("D1", "b")
    with pytest.raises(StoreError):
        store.register("D1", "c", 0)
    assert store.modules_of("D1") == ["a"]
    assert store.regions() == ["D1"]


def test_builder_estimate_memory_bound():
    """With a 22 MB/s store and a 66 MB/s port, memory dominates: ≈4 ms for
    the paper's 88 KB module."""
    sim = Simulator()
    store = BitstreamStore(bandwidth_bytes_per_s=22_000_000, access_ns=1_000)
    store.register("D1", "qpsk", 88_000)
    builder = ProtocolConfigurationBuilder(sim, ICAP_V2, store)
    est = builder.estimate_for("D1", "qpsk")
    assert 3.9 < to_ms(est) < 4.2


def test_builder_estimate_port_bound():
    """With a fast memory and the serial JTAG port, the port dominates."""
    sim = Simulator()
    store = BitstreamStore(bandwidth_bytes_per_s=200_000_000, access_ns=0)
    store.register("D1", "qpsk", 88_000)
    builder = ProtocolConfigurationBuilder(sim, JTAG, store)
    est = builder.estimate_ns(88_000)
    assert est >= JTAG.write_ns(88_000)


def test_builder_load_process_takes_estimated_time():
    sim = Simulator()
    store = BitstreamStore()
    store.register("D1", "qpsk", 50_000)
    trace = Trace()
    builder = ProtocolConfigurationBuilder(sim, ICAP_V2, store, trace=trace)

    def proc():
        outcome = yield sim.process(builder.load("D1", "qpsk"))
        return outcome

    p = sim.process(proc())
    outcome = sim.run(until=p)
    assert outcome.duration_ns == builder.estimate_ns(50_000)
    assert sim.now == outcome.duration_ns
    spans = trace.spans_of(kind="reconfig")
    assert len(spans) == 1 and spans[0].attributes["detail"] == "D1<-qpsk"


def test_builder_serializes_port_access():
    sim = Simulator()
    store = BitstreamStore()
    store.register("D1", "a", 10_000)
    store.register("D2", "b", 10_000)
    builder = ProtocolConfigurationBuilder(sim, ICAP_V2, store)
    outcomes = []

    def proc(region, module):
        yield sim.process(builder.load(region, module))
        outcomes.append((region, sim.now))

    sim.process(proc("D1", "a"))
    sim.process(proc("D2", "b"))
    sim.run()
    t1, t2 = outcomes[0][1], outcomes[1][1]
    one = builder.estimate_ns(10_000)
    assert t1 == one
    assert t2 == 2 * one  # strictly serialized on the single port


def test_builder_rejects_corrupted_bitstream():
    sim = Simulator()
    store = BitstreamStore()
    bs = generate_partial_bitstream(XC2V2000, PLACEMENT, "qpsk").corrupted(frame_index=1)
    store.register("D1", "qpsk", bs)
    builder = ProtocolConfigurationBuilder(sim, ICAP_V2, store)
    failures = []

    def proc():
        try:
            yield sim.process(builder.load("D1", "qpsk"))
        except ProtocolError as err:
            failures.append(str(err))

    p = sim.process(proc())
    sim.run(until=p)
    assert failures and "CRC" in failures[0]
    # The port must have been released despite the failure.
    assert not builder.port_lock.busy
