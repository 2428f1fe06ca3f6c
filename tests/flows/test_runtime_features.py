"""Runtime feature tests: startup loading, failure injection, traces."""

import pytest

from repro.flows import DesignFlow, SystemSimulation, parse_constraints
from repro.mccdma import Modulation
from repro.mccdma.casestudy import build_mccdma_design
from repro.obs import NOOP_TRACER, Tracer, use_tracer
from repro.reconfig import ReconfigError, ReconfigurationManager
from repro.reconfig.memory import BitstreamStore
from repro.reconfig.ports import ICAP_V2
from repro.reconfig.protocol import ProtocolConfigurationBuilder
from repro.sim import Simulator

STARTUP_CONSTRAINTS = """
[module mod_qpsk]
region    = D1
operation = mod_qpsk
loading   = startup

[module mod_qam16]
region    = D1
operation = mod_qam16

[region D1]
sharing   = true
exclusive = mod_qpsk, mod_qam16
"""


@pytest.fixture(scope="module")
def startup_flow():
    design = build_mccdma_design()
    flow = DesignFlow.from_design(
        design, dynamic_constraints=parse_constraints(STARTUP_CONSTRAINTS)
    )
    return flow.run()


def test_startup_module_listed(startup_flow):
    assert startup_flow.startup_modules() == {"D1": "mod_qpsk"}


def test_startup_loading_avoids_first_load(startup_flow):
    """With QPSK in the startup bitstream and a QPSK-only plan, the runtime
    performs zero reconfigurations."""
    result = SystemSimulation(
        startup_flow, n_iterations=6,
        selector_values={"modulation": lambda it: Modulation.QPSK},
    ).run()
    assert result.switches == 0
    assert result.total_stall_ns == 0


def test_startup_loading_still_swaps_on_change(startup_flow):
    plan = [Modulation.QPSK] * 3 + [Modulation.QAM16] * 3
    result = SystemSimulation(
        startup_flow, n_iterations=len(plan),
        selector_values={"modulation": lambda it: plan[it]},
    ).run()
    assert result.switches == 1  # only the QPSK -> QAM-16 swap


def test_runtime_simulation_feeds_manager_stats_into_run_totals(startup_flow):
    """Under a telemetry hub every ``ManagerStats`` counter lands in the run
    totals as ``reconfig.<name>`` — zero-valued ones too (an explicit zero
    beats absence in a manifest)."""
    from repro.obs import use_telemetry

    plan = [Modulation.QPSK] * 3 + [Modulation.QAM16] * 3
    with use_telemetry() as hub:
        result = SystemSimulation(
            startup_flow, n_iterations=len(plan),
            selector_values={"modulation": lambda it: plan[it]},
        ).run()
    snapshot = hub.store("run").snapshot()
    for name, count in result.manager_stats.to_dict().items():
        assert snapshot[f"reconfig.{name}"] == {"type": "counter", "value": count}
    assert snapshot["reconfig.crc_failures"]["value"] == 0


def test_preload_guards():
    sim = Simulator()
    store = BitstreamStore()
    store.register("D1", "a", 1_000)
    builder = ProtocolConfigurationBuilder(sim, ICAP_V2, store)
    mgr = ReconfigurationManager(sim, builder)
    with pytest.raises(ReconfigError, match="no bitstream"):
        mgr.preload("D1", "ghost")
    mgr.preload("D1", "a")
    assert mgr.loaded_module("D1") == "a"
    with pytest.raises(ReconfigError, match="already configured"):
        mgr.preload("D1", "a")


def test_runtime_corrupted_bitstream_fails_loudly():
    """Failure injection: a corrupted partial bitstream must fail the
    simulation with a CRC error, not silently activate a broken module."""
    design = build_mccdma_design()
    flow = DesignFlow.from_design(
        design,
        dynamic_constraints=parse_constraints(
            STARTUP_CONSTRAINTS.replace("loading   = startup", "loading   = runtime")
        ),
    ).run()
    # Corrupt the QAM-16 bitstream in place.
    key = ("D1", "dyn_D1_mod_qam16")
    flow.modular.bitstreams[key] = flow.modular.bitstreams[key].corrupted(frame_index=5)
    plan = [Modulation.QPSK, Modulation.QAM16]
    sim = SystemSimulation(
        flow, n_iterations=2,
        selector_values={"modulation": lambda it: plan[it]},
    )
    with pytest.raises(ReconfigError, match="CRC"):
        sim.run()


def test_runtime_trace_contains_port_and_compute_activity(startup_flow):
    plan = [Modulation.QPSK, Modulation.QAM16] * 2
    result = SystemSimulation(
        startup_flow, n_iterations=len(plan),
        selector_values={"modulation": lambda it: plan[it]},
    ).run()
    trace = result.execution.trace
    port_loads = trace.spans_of(kind="reconfig")
    assert len(port_loads) == result.switches
    computes = trace.spans_of(actor="op.F1", kind="compute")
    assert computes  # the static pipeline ran
    # Gantt rendering works on the combined trace.
    chart = trace.gantt(width=60)
    assert "op.F1" in chart


def test_traced_run_hands_the_tracer_its_trace_spans(startup_flow, monkeypatch):
    """The tracer adopts the trace's own span objects, under the run's
    ``runtime:simulate`` span; an untraced run hands over none."""
    plan = [Modulation.QPSK, Modulation.QAM16]
    run = SystemSimulation(
        startup_flow, n_iterations=len(plan),
        selector_values={"modulation": lambda it: plan[it]},
    )
    tracer = Tracer()
    with use_tracer(tracer):
        result = run.run()
    (simulate,) = [s for s in tracer.spans if s.name == "runtime:simulate"]
    sim_spans = [s for s in tracer.spans if s.clock == "sim"]
    trace_spans = result.execution.trace.spans
    assert sim_spans and len(sim_spans) == len(trace_spans)
    assert all(a is b for a, b in zip(sim_spans, trace_spans))
    assert {s.context.parent_id for s in sim_spans} == {simulate.context.span_id}
    assert {s.context.trace_id for s in sim_spans} == {tracer.trace_id}

    adopted = []
    monkeypatch.setattr(NOOP_TRACER, "add_spans", adopted.extend, raising=False)
    untraced = run.run()
    assert adopted == []
    assert all(s.context.parent_id is None for s in untraced.execution.trace.spans)


def test_throughput_reporting(startup_flow):
    result = SystemSimulation(
        startup_flow, n_iterations=8,
        selector_values={"modulation": lambda it: Modulation.QPSK},
    ).run()
    assert result.mean_iteration_ns() > 0
    assert result.throughput_iterations_per_s() > 0
    assert "0 reconfigurations" in result.summary()
