"""Board: byte-identity with the hand-built stack, multi-board interleaving."""

from repro.aaa import SynDExScheduler, adequate
from repro.arch import sundance_board
from repro.dfg.generators import chain_graph
from repro.dfg.library import default_library
from repro.executive import generate_executive, interpreter
from repro.reconfig import (
    ProtocolConfigurationBuilder,
    ReconfigurationManager,
    case_a_standalone,
)
from repro.runtime import Board, board_rng, generate_schedule
from repro.sim import Simulator, Trace

REGIONS = {"D1": ["qpsk", "qam16"], "D2": ["fft256", "fft512"]}


def make_store(arch):
    store = arch.make_store()
    for region, modules in REGIONS.items():
        for module in modules:
            store.register(region, module, 88_000)
    return store


def demand_sequence():
    return [
        (1_000, "D1", "qam16"),
        (5_000, "D2", "fft512"),
        (2_000, "D1", "qpsk"),
        (0, "D1", "qam16"),
        (10_000, "D2", "fft256"),
    ]


def run_with_board():
    arch = case_a_standalone()
    sim = Simulator()
    trace = Trace()
    board = Board("board", sim, arch, make_store(arch), trace=trace)
    board.preload("D1", "qpsk")
    board.preload("D2", "fft256")
    board.start(demand_sequence())
    sim.run()
    return sim.now, board.stats.to_dict(), trace


def run_hand_built():
    """The pre-Board construction sequence, verbatim: builder then manager
    on a private simulator, driven by the same request process."""
    arch = case_a_standalone()
    sim = Simulator()
    trace = Trace()
    store = make_store(arch)
    builder = ProtocolConfigurationBuilder(sim, arch.port, store, trace=trace)
    manager = ReconfigurationManager(
        sim, builder, request_latency_ns=arch.request_latency_ns, trace=trace
    )
    manager.preload("D1", "qpsk")
    manager.preload("D2", "fft256")

    def drive():
        for gap, region, module in demand_sequence():
            manager.notify_select(region, module)
            if gap:
                yield sim.timeout(gap)
            yield manager.ensure_loaded(region, module)

    sim.process(drive(), name="drive:board")
    sim.run()
    return sim.now, manager.stats.to_dict(), trace


def test_board_results_identical_to_hand_built_stack():
    """The Board refactor must not shift a single event: same end time,
    same counters, identical trace spans."""
    board_end, board_stats, board_trace = run_with_board()
    hand_end, hand_stats, hand_trace = run_hand_built()
    assert board_end == hand_end
    assert board_stats == hand_stats
    assert board_trace.spans == hand_trace.spans


def test_two_boards_interleave_independently():
    """A second board on the same kernel must not perturb the first: the
    first board's trace is identical to its single-board run."""
    arch = case_a_standalone()

    def solo():
        sim = Simulator()
        trace = Trace(scope="b0")
        board = Board("b0", sim, arch, make_store(arch), trace=trace)
        board.preload("D1", "qpsk")
        board.preload("D2", "fft256")
        board.start(demand_sequence())
        sim.run()
        return trace, board.stats.to_dict()

    def duo():
        sim = Simulator()
        traces = []
        stats = []
        for name, shift in (("b0", 0), ("b1", 1)):
            trace = Trace(scope=name)
            board = Board(name, sim, arch, make_store(arch), trace=trace)
            board.preload("D1", "qpsk")
            board.preload("D2", "fft256")
            schedule = demand_sequence()
            if shift:
                # Offset the second board so the calendars interleave.
                schedule = [(gap + 137, r, m) for gap, r, m in schedule]
            board.start(schedule)
            traces.append(trace)
            stats.append(board)
        sim.run()
        return traces, [b.stats.to_dict() for b in stats]

    solo_trace, solo_stats = solo()
    duo_traces, duo_stats = duo()
    assert duo_stats[0] == solo_stats
    assert duo_traces[0].spans == solo_trace.spans
    assert duo_traces[0].scope == "b0"
    assert duo_traces[1].scope == "b1"


def test_board_with_policy_bundle_and_schedule_generator():
    from repro.runtime import create_policy, future_from_schedule

    arch = case_a_standalone()
    sim = Simulator()
    schedule = generate_schedule(
        "poisson", board_rng(5, "b0"), REGIONS, 60, mean_gap_ns=50_000
    )
    bundle = create_policy("belady", future=future_from_schedule(schedule))
    board = Board(
        "b0", sim, arch, make_store(arch),
        policy=bundle.prefetch,
        eviction=bundle.eviction,
        region_slots=bundle.region_slots,
    )
    for region, modules in REGIONS.items():
        board.preload(region, modules[0])
    board.start(schedule)
    sim.run()
    assert board.stats.demand_requests == 60
    assert board.done_at_ns == sim.now
    # Two slots over two modules per region: after warmup everything is
    # resident, so the clairvoyant run serves most demands instantly.
    assert board.stats.resident_hits + board.stats.instant_hits > 30


def test_attached_executive_records_into_the_board_trace(monkeypatch):
    """The runner gets the board's trace at construction: attaching builds
    no trace of its own, while a standalone runner still does."""
    graph = chain_graph(3)
    schedule = adequate(
        graph, sundance_board().architecture, default_library(), scheduler=SynDExScheduler
    ).schedule
    program = generate_executive(graph, schedule)
    arch = case_a_standalone()
    trace = Trace()
    board = Board("board", Simulator(), arch, make_store(arch), trace=trace)

    built = []

    class CountingTrace(Trace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(interpreter, "Trace", CountingTrace)
    runner = board.attach_executive(program, n_iterations=2)
    assert built == []
    assert runner.trace is trace
    assert board.run_executive().trace is trace

    standalone = interpreter.ExecutiveRunner(program)
    assert built == [standalone.trace]
