"""The fleet driver: thousands of boards under one policy, two engines.

Builds N independent :class:`~repro.runtime.board.Board` instances, gives
each a seeded request schedule, and measures the fleet outcome.  Boards
interact only through event ordering — each owns its store, builder and
manager — so per-board results are a pure function of ``(seed, board_id,
policy)`` and the report digest is reproducible run-to-run and invariant
under board registration order.

Two engines produce that outcome:

- ``engine="kernel"`` — the reference path: every board lives on one shared
  :class:`~repro.sim.Simulator` and the calendar runs every request as
  discrete events.  Required for tracing and for any future cross-board
  coupling (shared backhaul, fleet-wide admission control).
- ``engine="fast"`` (default) — :mod:`repro.runtime.fast` replays the same
  schedules against one array engine (a core per policy bundle and slot
  count), reproducing per-board counters and ``end_time_ns`` exactly:
  ``FleetReport.digest()`` is identical across engines.  It computes
  counters and telemetry for every board; the rare board the arrays
  cannot hold (an event tie, a queue two jobs deep) replays on the
  kernel, and with ``trace_boards > 0`` the first boards additionally
  replay on a kernel subset that only produces their trace lanes.

Schedules are born as a :class:`~repro.runtime.traffic.ScheduleSet` (three
``(boards, requests)`` int arrays), generated for all boards in lockstep.
The fast engine's cores read those arrays directly; kernel boards read
the decoded per-board tuple view.  A caller's own tuple lists are packed
into a set once, with validation, at the :func:`run_fleet` boundary.

``run_frontier`` replays the *same* seeded traffic against several policy
bundles — schedules are generated once and shared across policies, since
they depend only on ``(seed, board_id, traffic)``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.reconfig.architectures import ReconfigArchitecture, all_cases
from repro.runtime.board import Board
from repro.runtime.fast import FastRunStats, simulate_fast_fleet
from repro.runtime.policies import create_policy, get_bundle
from repro.runtime.traffic import (
    ScheduleSet,
    board_rng,
    future_from_schedule,
    generate_schedules,
)
from repro.sim import Simulator, Trace

if TYPE_CHECKING:  # pragma: no cover - typing only, keeps runtime import light
    from repro.obs.telemetry import TimeSeriesStore

__all__ = [
    "ENGINES",
    "FleetConfig",
    "FleetReport",
    "FleetTelemetryRecorder",
    "generate_fleet_schedules",
    "run_fleet",
    "run_frontier",
]

#: Recognised values for the engine selector.
ENGINES = ("fast", "kernel")


def _architecture(name: str) -> ReconfigArchitecture:
    cases = {arch.name: arch for arch in all_cases()}
    try:
        return cases[name]
    except KeyError:
        known = ", ".join(sorted(cases))
        raise ValueError(f"unknown architecture {name!r}; known: {known}") from None


@dataclass(frozen=True)
class FleetConfig:
    """Parameters for one fleet run."""

    n_boards: int = 100
    requests_per_board: int = 200
    policy: str = "none"
    traffic: str = "poisson"
    seed: int = 0
    regions: int = 2
    modules_per_region: int = 4
    #: override the policy bundle's area budget (None = bundle default)
    region_slots: Optional[int] = None
    bitstream_bytes: int = 88_000
    architecture: str = "case_a_standalone"
    mean_gap_ns: int = 200_000
    #: the first N boards record full traces (scoped per board); tracing
    #: every board of a large fleet would dominate memory, so default off.
    #: Traced boards always run through the reference kernel path.
    trace_boards: int = 0
    #: "fast" (batched array-state engine) or "kernel" (reference event path)
    engine: str = "fast"

    def __post_init__(self):
        for name in ("n_boards", "requests_per_board", "trace_boards", "mean_gap_ns"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("regions", "modules_per_region"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.region_slots is not None and self.region_slots < 1:
            raise ValueError(f"region_slots must be None or >= 1, got {self.region_slots}")

    def region_map(self) -> dict[str, list[str]]:
        return {
            f"R{r}": [f"m{m}" for m in range(self.modules_per_region)]
            for r in range(self.regions)
        }


@dataclass
class FleetReport:
    """Outcome of one fleet run (one policy, one traffic pattern)."""

    policy: str
    traffic: str
    n_boards: int
    requests_per_board: int
    total_requests: int
    end_time_ns: int
    wall_s: float
    #: per-board stats dicts, in board-id order
    boards: list[dict] = field(default_factory=list)
    totals: dict = field(default_factory=dict)
    #: traces of the first ``trace_boards`` boards, scope = board id
    traces: list[Trace] = field(default_factory=list)
    #: which engine produced this report ("kernel" or "fast")
    engine: str = "kernel"
    #: fast-engine execution stats (core and kernel-replay board counts);
    #: None for kernel runs.  Excluded from the digest: it describes *how*
    #: the outcome was computed, not the outcome.
    engine_stats: Optional[FastRunStats] = None

    @property
    def requests_per_sec(self) -> float:
        return self.total_requests / self.wall_s if self.wall_s else float("inf")

    @property
    def hit_rate(self) -> float:
        demands = self.totals.get("demand_requests", 0)
        if not demands:
            return 0.0
        hits = self.totals.get("instant_hits", 0) + self.totals.get("resident_hits", 0)
        return hits / demands

    @property
    def mean_stall_ns(self) -> float:
        demands = self.totals.get("demand_requests", 0)
        return self.totals.get("stall_ns", 0) / demands if demands else 0.0

    def digest(self) -> str:
        """Deterministic fingerprint of the simulated outcome.

        Covers every per-board counter and the kernel end time — not wall
        time, not the engine — so two runs with the same config produce the
        same digest whichever engine computed them, and any behavioural
        drift flips it.
        """
        payload = json.dumps(
            {"boards": self.boards, "end_time_ns": self.end_time_ns},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def summary(self) -> str:
        return (
            f"fleet[{self.policy}/{self.traffic}]: {self.n_boards} boards x "
            f"{self.requests_per_board} requests in {self.wall_s:.2f}s wall "
            f"({self.requests_per_sec:,.0f} req/s, {self.engine} engine) — "
            f"hit rate {self.hit_rate:.1%}, "
            f"mean stall {self.mean_stall_ns / 1e3:.1f} us"
        )

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "traffic": self.traffic,
            "n_boards": self.n_boards,
            "requests_per_board": self.requests_per_board,
            "total_requests": self.total_requests,
            "end_time_ns": self.end_time_ns,
            "wall_s": self.wall_s,
            "requests_per_sec": self.requests_per_sec,
            "hit_rate": self.hit_rate,
            "mean_stall_ns": self.mean_stall_ns,
            "totals": dict(self.totals),
            "engine": self.engine,
            "engine_stats": self.engine_stats.to_dict() if self.engine_stats else None,
            "digest": self.digest(),
        }


class FleetTelemetryRecorder:
    """Low-overhead telemetry collector for the fast engine, and the
    kernel's per-event sink.

    A vector core writes, per step, only what the flush cannot rebuild
    from the schedule arrays and the load table: one row of each column
    :meth:`begin` preallocates (the miss mask on the no-prefetch core).
    The speculate core also hands over a port batch whenever it starts
    queued speculations between steps.  The kernel manager
    (``engine="kernel"`` and kernel replays) appends plain tuples to
    :attr:`scalar_demands` and :attr:`scalar_port`.  :meth:`flush` then
    hands lazy batch closures to a
    :class:`~repro.obs.telemetry.TimeSeriesStore`'s write-behind buffer,
    so rebuilding request times, stalls and transfers, and all windowed
    aggregation, runs at the store's first read — outside the timed
    simulation.  The simulated state is never read back, so enabling
    telemetry cannot move ``FleetReport.digest()``.

    Series produced (sim-clock windows, labeled ``policy=...``):
    ``fleet.demands`` / ``fleet.hits`` counters keyed by request time,
    ``fleet.stall_ns`` quantile sketch over per-demand stalls (zero on a
    hit — the full request-latency distribution, so p99 covers misses),
    ``fleet.port_busy_ns`` transfer occupancy keyed by each transfer's end,
    and the derived ``fleet.port_util`` gauge (busy ns / window ns /
    boards), summed board by board in time order.  Both engines produce
    the same rows.
    """

    #: per vector core, the dtype of each column it writes per step:
    #: ``noprefetch`` the miss mask; ``onselect`` the early (queued behind
    #: the select-time load) and fetch masks; ``speculate`` stall, hit,
    #: reload, load end, speculation start, speculation end and its
    #: transfer
    COLUMNS = {
        "noprefetch": (bool,),
        "onselect": (bool, bool),
        "speculate": (np.int64, bool, bool, np.int64, bool, np.int64, np.int64),
    }

    def __init__(self):
        #: the vector core's run: ``(mode, columns, gaps, regions,
        #: modules, load_arr, latency_ns)`` (see :meth:`begin`)
        self._core: Optional[tuple] = None
        #: port transfers a core starts between its steps (a queued
        #: speculation at its region's landing): ``(mask, end, duration)``
        #: board-indexed arrays, captured by reference
        self._ports: list[tuple] = []
        #: per-event demand completions: (t_req, stall_ns, hit)
        self.scalar_demands: list[tuple] = []
        #: per-event port transfers: (end_ns, duration_ns)
        self.scalar_port: list[tuple] = []
        #: the board of each :attr:`scalar_port` event, when known (the
        #: fast engine labels them; the shared-kernel run cannot)
        self.scalar_port_boards: list[int] = []
        #: boards whose step columns the per-event lists supersede
        self.skip_boards: Optional[np.ndarray] = None

    def begin(self, mode, gaps, regions, modules, load_arr, latency_ns) -> tuple:
        """The ``(steps, boards)`` columns a ``mode`` core fills row by row.

        The schedule arrays and the load table are kept by reference; the
        flush rebuilds the rest of each step from them.
        """
        n_boards, steps = gaps.shape
        columns = tuple(np.empty((steps, n_boards), dtype=dtype) for dtype in self.COLUMNS[mode])
        self._core = (mode, columns, gaps, regions, modules, load_arr, latency_ns)
        return columns

    def record_port(self, mask, end, duration) -> None:
        self._ports.append((mask, end, duration))

    @staticmethod
    def _step_events(mode, columns, gaps, regions, modules, load_arr, latency_ns):
        """One core's columns as demand and port events, step-major.

        Returns ``(t, stall, hit, ports)``; ``ports`` lists
        ``(mask, end, duration)`` triples, one per transfer kind.
        """
        gap = gaps.T
        load = load_arr[regions.T, modules.T]
        if mode == "noprefetch":
            (miss,) = columns
            stall = np.where(miss, latency_ns + load, 0)
            hit = ~miss
        elif mode == "onselect":
            early, fetch = columns
            # queued behind the load the select announcement started a
            # gap before the request
            stall = np.where(early, latency_ns + load - gap, 0)
            hit = ~early
        else:
            stall, hit, reload, load_end, go, spec_end, spec_load = columns
        # each request comes a gap after the previous one completed
        t = np.cumsum(gap, axis=0) + np.cumsum(stall, axis=0) - stall
        if mode == "noprefetch":
            ports = [(miss, t + latency_ns + load, load)]
        elif mode == "onselect":
            ports = [(fetch, t - gap + latency_ns + load, load)]
        else:
            ports = [(reload, load_end, load), (go, spec_end, spec_load)]
        flat = [(mask.ravel(), end.ravel(), duration.ravel()) for mask, end, duration in ports]
        return t.ravel(), stall.ravel(), hit.ravel(), flat

    def flush(self, store: "TimeSeriesStore", policy: str, n_boards: int) -> None:
        """Hand the accumulated batches to the store as *lazy* batches.

        Nothing is concatenated, masked or derived here: closures capturing
        the core's columns, the schedule arrays and the per-event lists go
        into the store's write-behind buffer
        (:meth:`~repro.obs.telemetry.TimeSeriesStore.defer_array`) and run
        at first read, so the cost paid inside the timed simulation is a
        handful of list appends.  The recorder's state is re-bound (never
        cleared in place) — the closures keep what was handed over,
        sharing one memoized materialization across all five series.
        """
        core, self._core = self._core, None
        port_batches, self._ports = self._ports, []
        scalar_demands, self.scalar_demands = self.scalar_demands, []
        scalar_port, self.scalar_port = self.scalar_port, []
        port_boards, self.scalar_port_boards = self.scalar_port_boards, []
        skip, self.skip_boards = self.skip_boards, None
        if core is None and not scalar_demands and not scalar_port:
            return
        denominator = float(store.window) * max(n_boards, 1)
        cache: dict = {}

        def _cat(parts):
            return parts[0] if len(parts) == 1 else np.concatenate(parts)

        def _mat():
            """One shared materialization pass, run at first drain."""
            if cache:
                return cache
            parts_t, parts_stall, parts_hit_t = [], [], []
            parts_board, parts_end, parts_dur = [], [], []
            if core is not None:
                t, stall, hit, ports = self._step_events(*core)
                board = np.arange(len(t)) % max(n_boards, 1)
                keep = ~skip[board] if skip is not None else np.ones(len(t), dtype=bool)
                parts_t.append(t[keep])
                parts_stall.append(stall[keep])
                parts_hit_t.append(t[hit & keep])
                for mask, end, duration in ports:
                    mask = mask & keep
                    parts_board.append(board[mask])
                    parts_end.append(end[mask])
                    parts_dur.append(duration[mask])
            for mask, end, duration in port_batches:
                board = np.arange(len(mask))
                mask = mask & ~skip if skip is not None else mask
                parts_board.append(board[mask])
                parts_end.append(end[mask])
                parts_dur.append(duration[mask])
            if scalar_demands:
                events = np.asarray(scalar_demands, dtype=np.int64)
                parts_t.append(events[:, 0])
                parts_stall.append(events[:, 1])
                parts_hit_t.append(events[:, 0][events[:, 2].astype(bool)])
            if scalar_port:
                events = np.asarray(scalar_port, dtype=np.int64)
                parts_board.append(
                    np.asarray(port_boards, dtype=np.int64)
                    if len(port_boards) == len(events)
                    else np.zeros(len(events), dtype=np.int64)
                )
                parts_end.append(events[:, 0])
                parts_dur.append(events[:, 1])
            empty = np.empty(0, dtype=np.int64)
            cache["t"] = _cat(parts_t) if parts_t else empty
            cache["stall"] = _cat(parts_stall) if parts_stall else empty
            cache["hit_t"] = _cat(parts_hit_t) if parts_hit_t else empty
            if parts_end:
                end, duration = _cat(parts_end), _cat(parts_dur)
                # board by board, in time order: the summation order of the
                # float port_util contributions (the shared kernel labels no
                # board and keeps its own event order)
                order = np.lexsort((end, _cat(parts_board)))
                busy = duration[order] > 0
                cache["port_t"] = end[order][busy]
                cache["port_v"] = duration[order][busy]
            else:
                cache["port_t"] = cache["port_v"] = empty
            return cache

        store.defer_array(
            "fleet.demands", "counter",
            lambda: (_mat()["t"], None), policy=policy,
        )
        store.defer_array(
            "fleet.hits", "counter",
            lambda: (_mat()["hit_t"], None), policy=policy,
        )
        store.defer_array(
            "fleet.stall_ns", "quantile",
            lambda: (_mat()["t"], _mat()["stall"]), policy=policy,
        )
        store.defer_array(
            "fleet.port_busy_ns", "counter",
            lambda: (_mat()["port_t"], _mat()["port_v"]), policy=policy,
        )
        # the fleet shares no port across boards, so utilization is busy
        # time per window normalized by boards-worth of windows; the
        # additive gauge form sums the per-event contributions
        store.defer_array(
            "fleet.port_util", "gauge",
            lambda: (_mat()["port_t"], _mat()["port_v"] / denominator),
            policy=policy,
        )


def _board_id(index: int) -> str:
    return f"b{index:04d}"


def generate_fleet_schedules(config: FleetConfig) -> ScheduleSet:
    """Every board's request schedule, in board-id order, as one array set.

    Schedules depend only on ``(seed, board_id, traffic)`` — never on the
    policy or engine — so one generation pass serves a whole frontier.
    """
    return generate_schedules(
        config.traffic,
        [board_rng(config.seed, _board_id(i)) for i in range(config.n_boards)],
        config.region_map(),
        config.requests_per_board,
        mean_gap_ns=config.mean_gap_ns,
    )


def _schedule_set(config: FleetConfig, schedules) -> ScheduleSet:
    """``schedules`` as a set matching ``config``; tuple lists are packed once."""
    if len(schedules) != config.n_boards:
        raise ValueError(
            f"got {len(schedules)} schedules for {config.n_boards} boards"
        )
    region_map = config.region_map()
    if not isinstance(schedules, ScheduleSet):
        return ScheduleSet.from_tuples(schedules, region_map, config.requests_per_board)
    if schedules.n_requests != config.requests_per_board:
        raise ValueError(
            f"schedules hold {schedules.n_requests} requests per board, "
            f"config asks for {config.requests_per_board}"
        )
    if list(schedules.region_map.items()) != list(region_map.items()):
        raise ValueError("schedules were generated for another region map")
    return schedules


def _build_kernel_board(
    config: FleetConfig,
    sim: Simulator,
    arch: ReconfigArchitecture,
    region_map: dict[str, list[str]],
    index: int,
    schedule: Sequence[tuple[int, str, str]],
    traced: bool,
    sink=None,
) -> Board:
    bundle = get_bundle(config.policy)
    future = future_from_schedule(schedule) if bundle.needs_future else None
    runtime_policy = create_policy(
        config.policy, future=future, region_slots=config.region_slots
    )
    store = arch.make_store()
    for region, modules in region_map.items():
        for module in modules:
            store.register(region, module, config.bitstream_bytes)
    board_id = _board_id(index)
    trace = Trace(scope=board_id) if traced else None
    board = Board(
        board_id, sim, arch, store,
        policy=runtime_policy.prefetch,
        eviction=runtime_policy.eviction,
        region_slots=runtime_policy.region_slots,
        trace=trace,
        telemetry=sink,
    )
    # Every region ships its first module in the startup bitstream, so
    # boards start warm and the first request is not always a miss.
    for region, modules in region_map.items():
        board.preload(region, modules[0])
    board.start(schedule)
    return board


def _run_kernel_boards(
    config: FleetConfig,
    arch: ReconfigArchitecture,
    schedules: ScheduleSet,
    first_index: int = 0,
    sink=None,
) -> tuple[list[Board], Simulator]:
    """Build and run a (sub)fleet on one shared reference kernel.

    ``sink`` receives every board's telemetry events (see
    :class:`FleetTelemetryRecorder`).
    """
    region_map = config.region_map()
    sim = Simulator()
    boards = [
        _build_kernel_board(
            config, sim, arch, region_map,
            first_index + offset, schedule,
            traced=(first_index + offset) < config.trace_boards,
            sink=sink,
        )
        for offset, schedule in enumerate(schedules)
    ]
    sim.run()
    return boards, sim


def run_fleet(
    config: FleetConfig,
    engine: Optional[str] = None,
    schedules: Optional[Sequence[Sequence[tuple[int, str, str]]]] = None,
    telemetry: Optional["TimeSeriesStore"] = None,
) -> FleetReport:
    """Run one policy over the whole fleet.

    ``engine`` overrides ``config.engine``; pass pre-generated
    ``schedules`` (a :class:`~repro.runtime.traffic.ScheduleSet` from
    :func:`generate_fleet_schedules`) to amortise traffic generation across
    runs — its shape and region map must match ``config``.  Per-board
    ``[(gap_ns, region, module), ...]`` lists are accepted too: each board
    needs ``requests_per_board`` entries from ``config.region_map()`` with
    int gaps >= 0, and they are packed into a set before either engine runs.

    ``telemetry`` is an optional sim-clock
    :class:`~repro.obs.telemetry.TimeSeriesStore`: either engine records
    windowed per-policy hit/stall/port series for every board through
    :class:`FleetTelemetryRecorder` (digest parity untouched), and both
    record the same rows.  Trace lanes never feed it, so tracing never
    changes them.
    """
    get_bundle(config.policy)  # fail fast on unknown names
    engine = engine if engine is not None else config.engine
    if engine not in ENGINES:
        known = ", ".join(ENGINES)
        raise ValueError(f"unknown engine {engine!r}; known engines: {known}")
    arch = _architecture(config.architecture)
    t0 = time.perf_counter()
    if schedules is None:
        schedules = generate_fleet_schedules(config)
    else:
        schedules = _schedule_set(config, schedules)
    engine_stats: Optional[FastRunStats] = None
    recorder = FleetTelemetryRecorder() if telemetry is not None else None
    if engine == "kernel":
        boards, sim = _run_kernel_boards(config, arch, schedules, sink=recorder)
        per_board = [board.stats.to_dict() for board in boards]
        end_time_ns = sim.now
        traces = [board.trace for board in boards if board.trace is not None]
    else:

        def replay(index: int, sink) -> tuple[dict, int]:
            # a board whose request meets an event tie: the kernel orders it
            (board,), sim = _run_kernel_boards(
                config, arch, schedules[index:index + 1], index, sink=sink
            )
            return board.stats.to_dict(), sim.now

        per_board, fast_ends, engine_stats = simulate_fast_fleet(
            config, schedules, arch, recorder=recorder, replay=replay
        )
        end_time_ns = max(fast_ends, default=0)
        # The per-engine parity tests pin the fast counters to the kernel's,
        # so the traced subset replays on the kernel only for its lanes.
        traced = min(config.trace_boards, config.n_boards)
        traces = []
        if traced:
            traced_boards, _ = _run_kernel_boards(config, arch, schedules[:traced])
            traces = [b.trace for b in traced_boards if b.trace is not None]
    if recorder is not None:
        recorder.flush(telemetry, policy=config.policy, n_boards=config.n_boards)
    wall_s = time.perf_counter() - t0
    # column sums: every row lists the counters in one order
    totals = (
        dict(zip(per_board[0], map(sum, zip(*(stats.values() for stats in per_board)))))
        if per_board else {}
    )
    for trace in traces:
        trace.close_open(end_time_ns)
    return FleetReport(
        policy=config.policy,
        traffic=config.traffic,
        n_boards=config.n_boards,
        requests_per_board=config.requests_per_board,
        total_requests=config.n_boards * config.requests_per_board,
        end_time_ns=end_time_ns,
        wall_s=wall_s,
        boards=per_board,
        totals=totals,
        traces=traces,
        engine=engine,
        engine_stats=engine_stats,
    )


def run_frontier(
    config: FleetConfig,
    policies: list[str],
    engine: Optional[str] = None,
    telemetry: Optional["TimeSeriesStore"] = None,
) -> dict[str, FleetReport]:
    """Replay identical seeded traffic under each policy.

    Schedules depend only on ``(seed, board_id, traffic)``, so they are
    generated once and every policy sees the same demand stream — the
    resulting hit-rate / stall frontier compares management strategies,
    not luck (and not repeated traffic-generation cost).
    """
    schedules = generate_fleet_schedules(config)
    reports: dict[str, FleetReport] = {}
    for name in policies:
        reports[name] = run_fleet(
            replace(config, policy=name), engine=engine, schedules=schedules,
            telemetry=telemetry,
        )
    return reports
