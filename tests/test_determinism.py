"""Whole-stack determinism: identical inputs produce identical artefacts.

Reproducibility is a design goal (integer simulation time, FIFO event
ordering, seeded randomness).  These tests run major stages twice and
require bit-identical results.
"""

from repro.aaa import SynDExScheduler, adequate
from repro.arch import sundance_board
from repro.dfg.generators import layered_random_graph
from repro.dfg.library import default_library
from repro.executive import ExecutiveRunner, generate_executive
from repro.flows import ArtifactCache, DesignFlow, SystemSimulation, parse_constraints
from repro.mccdma import SnrTrace
from repro.mccdma.bindings import make_case_study_bindings
from repro.mccdma.casestudy import build_mccdma_design

CONSTRAINTS = """
[module mod_qpsk]
region    = D1
operation = mod_qpsk

[module mod_qam16]
region    = D1
operation = mod_qam16

[region D1]
sharing   = true
exclusive = mod_qpsk, mod_qam16
"""


def schedule_fingerprint(schedule):
    return (
        tuple((s.op.name, s.operator.name, s.start, s.end) for s in schedule.ops),
        tuple((str(t.edge), t.medium.name, t.start, t.end, t.hop) for t in schedule.transfers),
        tuple((r.module, r.start, r.end, r.prefetched) for r in schedule.reconfigs),
    )


def test_adequation_deterministic():
    g1 = layered_random_graph(5, 4, seed=9)
    g2 = layered_random_graph(5, 4, seed=9)
    board = sundance_board()
    r1 = adequate(g1, board.architecture, default_library(), scheduler=SynDExScheduler)
    r2 = adequate(g2, sundance_board().architecture, default_library(), scheduler=SynDExScheduler)
    assert schedule_fingerprint(r1.schedule) == schedule_fingerprint(r2.schedule)


def test_executive_simulation_deterministic():
    g = layered_random_graph(4, 3, seed=2)
    board = sundance_board()
    result = adequate(g, board.architecture, default_library(), scheduler=SynDExScheduler)
    program = generate_executive(g, result.schedule)

    def run_once():
        report = ExecutiveRunner(program, n_iterations=5).run()
        return (
            report.end_time_ns,
            tuple(
                (s.track, s.attributes["kind"], s.start_ns, s.end_ns)
                for s in report.trace.spans
            ),
        )

    assert run_once() == run_once()


def test_full_flow_and_runtime_deterministic():
    def run_once():
        design = build_mccdma_design()
        flow = DesignFlow.from_design(
            design, dynamic_constraints=parse_constraints(CONSTRAINTS)
        )
        result = flow.run()
        snr = SnrTrace.step(low_db=8.0, high_db=22.0, period=4, n=12)
        state = make_case_study_bindings(snr, seed=3)
        runtime = SystemSimulation(
            result, n_iterations=12, bindings=state.bindings, capture={"dac"}
        ).run()
        vhdl_digest = tuple(sorted((k, hash(v)) for k, v in result.generated.files.items()))
        return (
            schedule_fingerprint(result.adequation.schedule),
            result.modular.floorplan.placements["D1"],
            result.region_latency_ns("D1"),
            vhdl_digest,
            runtime.end_time_ns,
            runtime.switches,
            tuple(m.value for m in state.selected),
        )

    assert run_once() == run_once()


def test_cold_and_warm_flow_artefacts_byte_identical():
    """A cache-served run must reproduce an uncached run exactly: same
    schedule, same generated VHDL text, same UCF, same executive, same
    bitstream contents."""

    def make_flow(**kwargs):
        design = build_mccdma_design()
        flow = DesignFlow.from_design(
            design, dynamic_constraints=parse_constraints(CONSTRAINTS), **kwargs
        )
        flow.mapping.pin("bit_src", "DSP").pin("select", "DSP")
        return flow

    cold = make_flow().run()  # no cache at all
    cache = ArtifactCache()
    make_flow(cache=cache).run()  # populate
    warm = make_flow(cache=cache).run()  # every stage served from cache
    assert all(e.cache_hit for e in warm.events)

    assert schedule_fingerprint(cold.adequation.schedule) == schedule_fingerprint(
        warm.adequation.schedule
    )
    assert cold.first_pass_makespan_ns == warm.first_pass_makespan_ns
    assert cold.generated.files == warm.generated.files  # exact text equality
    assert cold.modular.ucf == warm.modular.ucf
    assert cold.executive.render() == warm.executive.render()
    assert set(cold.modular.bitstreams) == set(warm.modular.bitstreams)
    for key, bitstream in cold.modular.bitstreams.items():
        assert list(bitstream.words()) == list(warm.modular.bitstreams[key].words())
    assert cold.to_dict()["regions"] == warm.to_dict()["regions"]


def test_bitstream_generation_deterministic():
    from repro.fabric import XC2V2000, generate_partial_bitstream
    from repro.fabric.floorplan import ModulePlacement

    p = ModulePlacement("D1", 44, 4)
    a = generate_partial_bitstream(XC2V2000, p, "module_x")
    b = generate_partial_bitstream(XC2V2000, p, "module_x")
    assert a.crc == b.crc
    assert list(a.words()) == list(b.words())
