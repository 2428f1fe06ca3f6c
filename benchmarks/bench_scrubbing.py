"""X8 — configuration availability under SEUs vs scrub rate.

Extension experiment on the runtime manager: a Poisson single-event-upset
process corrupts the configured region; a scrubber periodically reads back
and repairs through the shared configuration port.  Regenerates the
availability-vs-scrub-interval curve and the port-time cost of scrubbing.
"""

from conftest import write_result

from repro.reconfig import (
    BitstreamStore,
    ConfigurationScrubber,
    ICAP_V2,
    ProtocolConfigurationBuilder,
    ReconfigurationManager,
    SEUInjector,
)
from repro.sim import Simulator, Trace
from repro.sim.units import ms


def _run_once(scrub_interval_ns: int, horizon_ns: int, seed: int):
    sim = Simulator()
    store = BitstreamStore(bandwidth_bytes_per_s=80_000_000, access_ns=0)
    store.register("D1", "m", 80_000)  # 1 ms load/readback
    trace = Trace()
    builder = ProtocolConfigurationBuilder(sim, ICAP_V2, store, trace=trace)
    manager = ReconfigurationManager(sim, builder, request_latency_ns=0)
    injector = SEUInjector(sim, builder, ["D1"], mean_interval_ns=ms(25), seed=seed)
    builder.upset_injector = lambda region, module: False
    scrubber = ConfigurationScrubber(sim, manager, scrub_interval_ns, injector=injector)

    def boot():
        yield manager.ensure_loaded("D1", "m")

    sim.process(boot())
    sim.run(until=horizon_ns)
    port_busy = sum(s.duration_ns for s in trace.spans_of(kind="reconfig"))
    port_busy += sum(s.duration_ns for s in trace.spans_of(kind="readback"))
    return {
        "availability": scrubber.availability(horizon_ns),
        "upsets": injector.upsets,
        "repairs": scrubber.stats.repairs,
        "port_busy_fraction": port_busy / horizon_ns,
    }


def test_availability_vs_scrub_interval(benchmark):
    horizon = ms(600)

    def run():
        rows = []
        for interval_ms in (2, 8, 32, 128):
            merged = {"availability": 0.0, "upsets": 0, "repairs": 0, "port_busy_fraction": 0.0}
            n_seeds = 3
            for seed in range(n_seeds):
                out = _run_once(ms(interval_ms), horizon, seed=seed)
                for key in merged:
                    merged[key] += out[key]
            rows.append((interval_ms, {k: v / n_seeds for k, v in merged.items()}))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    avail = [m["availability"] for _, m in rows]
    # Faster scrubbing -> higher availability, monotonically over this sweep.
    assert avail == sorted(avail, reverse=True)
    # 2 ms scrubbing keeps the region intact most of the time (repair itself
    # costs ≈2 ms of readback+rewrite per upset at a 25 ms mean upset rate).
    assert avail[0] > 0.85
    assert avail[-1] < avail[0] - 0.3
    text = ["scrub interval | availability | upsets | repairs | port busy"]
    for interval_ms, m in rows:
        text.append(
            f"{interval_ms:>11} ms | {100 * m['availability']:>10.1f}% | {m['upsets']:>6.1f} "
            f"| {m['repairs']:>7.1f} | {100 * m['port_busy_fraction']:>7.1f}%"
        )
    write_result("scrubbing_availability", "\n".join(text))
