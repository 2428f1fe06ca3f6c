"""Tests for SEU injection and configuration scrubbing."""

import pytest

from repro.reconfig import (
    BitstreamStore,
    ICAP_V2,
    ProtocolConfigurationBuilder,
    ReconfigurationManager,
)
from repro.reconfig.scrubbing import ConfigurationScrubber, SEUInjector
from repro.sim import Simulator, Trace
from repro.sim.units import ms


def make_system(scrub_interval_ns, upset_interval_ns=None, seed=1):
    sim = Simulator()
    store = BitstreamStore(bandwidth_bytes_per_s=80_000_000, access_ns=0)
    store.register("D1", "m", 80_000)  # 1 ms load
    trace = Trace()
    builder = ProtocolConfigurationBuilder(sim, ICAP_V2, store, trace=trace)
    manager = ReconfigurationManager(sim, builder, request_latency_ns=0)
    injector = None
    if upset_interval_ns is not None:
        injector = SEUInjector(sim, builder, ["D1"], upset_interval_ns, seed=seed)
        builder.upset_injector = lambda region, module: False
    scrubber = ConfigurationScrubber(sim, manager, scrub_interval_ns, injector=injector)
    return sim, manager, builder, injector, scrubber


def test_validation():
    sim, manager, builder, _, _ = make_system(ms(10))
    with pytest.raises(ValueError):
        ConfigurationScrubber(sim, manager, 0)
    with pytest.raises(ValueError):
        SEUInjector(sim, builder, [], 100)
    with pytest.raises(ValueError):
        SEUInjector(sim, builder, ["D1"], 0)


def test_no_upsets_no_repairs():
    sim, manager, builder, _, scrubber = make_system(ms(5))

    def boot():
        yield manager.ensure_loaded("D1", "m")

    sim.process(boot())
    sim.run(until=ms(100))
    assert scrubber.stats.scrub_cycles >= 19
    assert scrubber.stats.repairs == 0
    assert scrubber.availability(ms(100)) == 1.0


def test_upsets_get_repaired():
    sim, manager, builder, injector, scrubber = make_system(
        scrub_interval_ns=ms(5), upset_interval_ns=ms(20)
    )

    def boot():
        yield manager.ensure_loaded("D1", "m")

    sim.process(boot())
    sim.run(until=ms(200))
    assert injector.upsets > 0
    assert scrubber.stats.repairs > 0
    assert scrubber.stats.repairs <= injector.upsets
    # Fast scrubbing keeps availability high.
    assert scrubber.availability(ms(200)) > 0.5
    # Device content intact at the end or pending one open corruption.
    content = builder._device_content["D1"]
    assert content[0] == "m"


def test_faster_scrubbing_improves_availability():
    results = {}
    for interval in (ms(2), ms(40)):
        sim, manager, builder, injector, scrubber = make_system(
            scrub_interval_ns=interval, upset_interval_ns=ms(15), seed=3
        )

        def boot():
            yield manager.ensure_loaded("D1", "m")

        sim.process(boot())
        sim.run(until=ms(400))
        results[interval] = scrubber.availability(ms(400))
    assert results[ms(2)] > results[ms(40)]


def test_scrubber_respects_port_contention():
    """Repairs serialize with demand loads on the one configuration port —
    the simulation completes without deadlock and the port trace shows both
    kinds of traffic."""
    sim, manager, builder, injector, scrubber = make_system(
        scrub_interval_ns=ms(3), upset_interval_ns=ms(10), seed=5
    )
    store = builder.store
    store.register("D1", "n", 80_000)

    def workload():
        current = "m"
        for _ in range(12):
            yield manager.ensure_loaded("D1", current)
            yield sim.timeout(ms(8))
            current = "n" if current == "m" else "m"

    p = sim.process(workload())
    sim.run(until=ms(150))
    assert p.processed  # workload finished despite scrubbing traffic
    assert scrubber.stats.scrub_cycles > 0
