"""The batched fleet engine: array-state request simulation without a heap.

Fleet boards interact only through the shared calendar's event ordering —
each board owns its store, builder and manager, so per-board outcomes are a
pure function of ``(schedule, policy, architecture)``.  That independence
means fleet results need no global event heap at all: this module replays
the same request schedules against the same management semantics as the
kernel path, but advances state per *request step* instead of per *event*.

Schedules arrive as a :class:`~repro.runtime.traffic.ScheduleSet`, which
is born as ``(boards, requests)`` int arrays.  The vector cores read those
arrays as they are — no packing step — so a timed run on a pre-generated
set (the fleet benchmark's ``fast.requests_per_sec``) times the cores
alone; the scalar fallback decodes one board's tuple list at a time.

Two execution strategies, picked per policy bundle by :func:`vector_mode`:

- **Vectorized cores** hold the whole fleet's manager state as numpy arrays
  (active module per ``(board, region)``, resident sets as boolean cubes,
  recency/frequency/insertion clocks) and advance all boards one request
  step at a time.  Closed forms exist wherever the request stream is
  sequential per board:

  * ``noprefetch`` (``none``/``lru``/``lfu`` and any ``region_slots``):
    demands never overlap loads, so a step is hit / resident-hit / miss with
    ``stall = latency + transfer`` on a miss, plus masked insert/evict
    updates on the resident cube.
  * ``onselect`` (``fixed``/``on_select`` at one slot): the announcement
    starts a speculative load at the previous completion time ``t_sel``;
    with ``spec_end = t_sel + latency + transfer`` the demand at ``t_req``
    either joins/queues behind the flight (``t_req <= spec_end``: completion
    at ``spec_end``, a useful prefetch, no hit counters) or finds it done
    (``t_req > spec_end``: instant hit + useful prefetch).  Both cases were
    derived from — and are property-tested against — the kernel's cascade
    ordering, including the exact-tie ``t_req == spec_end`` join.

- **The scalar micro-simulator** (:class:`_BoardSim`) covers every other
  bundle (history/confidence/markov speculation, belady's clairvoyant scan,
  prefetch with multi-slot overrides).  It is still ~an order of magnitude
  faster than the kernel: one tiny per-board heap of plain tuples replaces
  generator processes, mailboxes and resource locks, while the *decision*
  objects (prefetch policy, eviction policy) are the real registry classes,
  so there is no second implementation of policy logic to drift.  Event
  sequence numbers are assigned at the same logical points as the kernel
  assigns its enqueue counters, reproducing every tie-break:

  * a demand resolved in region-process context schedules the next latency
    timeout *before* the driver's gap timeout (equal-time loads win);
  * a demand resolved in driver context (instant/resident hit) schedules
    the gap *before* the post-hit speculation's latency window;
  * at a transfer end the cascade runs bookkeeping -> port hand-off ->
    next queued job -> driver continuation, exactly the kernel's
    urgent-completion / FIFO-grant / mailbox-get / stall-chain order.

Both strategies reproduce the kernel's per-board counters and end times
exactly; ``FleetReport.digest()`` is identical between engines (asserted by
``tests/runtime/test_fast.py`` across policies x traffic x seeds x slots).
Counter rows use the :data:`~repro.reconfig.manager.COUNTER_FIELDS` layout
and are rebuilt through :meth:`ManagerStats.from_counters`, so the array
form and the manager's dataclass can never disagree on field order.

Preconditions (all guaranteed by the fleet driver): size-only bitstream
registration (CRC always verifies), no readback verification, no upset
injection — the failure/retry counters stay zero on both paths.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.reconfig.architectures import ReconfigArchitecture
from repro.reconfig.manager import COUNTER_FIELDS, ManagerStats
from repro.reconfig.prefetch import NoPrefetchPolicy, OnSelectPrefetchPolicy
from repro.runtime.policies import RuntimePolicy, create_policy, get_bundle
from repro.runtime.traffic import ScheduleSet, future_from_schedule
from repro.sim import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fleet imports fast)
    from repro.runtime.fleet import FleetConfig

__all__ = ["FastRunStats", "simulate_fast_fleet", "vector_mode"]

_IDX = {name: i for i, name in enumerate(COUNTER_FIELDS)}
_I_DEMAND_REQUESTS = _IDX["demand_requests"]
_I_DEMAND_LOADS = _IDX["demand_loads"]
_I_PREFETCH_LOADS = _IDX["prefetch_loads"]
_I_USEFUL = _IDX["useful_prefetches"]
_I_WASTED = _IDX["wasted_prefetches"]
_I_INSTANT = _IDX["instant_hits"]
_I_RESIDENT = _IDX["resident_hits"]
_I_EVICTIONS = _IDX["evictions"]
_I_STALL = _IDX["stall_ns"]
_N_COUNTERS = len(COUNTER_FIELDS)


@dataclass
class FastRunStats:
    """How the fast engine executed one fleet (the regression-guard hooks)."""

    #: vector core used, or "scalar" when the whole fleet fell back
    mode: str
    #: boards advanced by a vectorized core
    vector_boards: int
    #: boards advanced by the scalar micro-simulator
    scalar_boards: int
    #: per-step vector updates executed (== requests_per_board when vectorized)
    vector_steps: int

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "vector_boards": self.vector_boards,
            "scalar_boards": self.scalar_boards,
            "vector_steps": self.vector_steps,
        }


def vector_mode(policy: str, region_slots: Optional[int] = None) -> Optional[str]:
    """The vector core handling ``policy`` at ``region_slots``, or None.

    None means the bundle's transitions resist vectorization (idle-time
    speculation whose predictions depend on per-board history, or belady's
    clairvoyant scan) and boards run through the scalar micro-simulator.
    The class checks are exact (``type is``): a subclassed policy may
    override behaviour the closed forms assume, so it falls back safely.
    """
    bundle = get_bundle(policy)
    slots = region_slots if region_slots is not None else bundle.region_slots
    prefetch_type = type(bundle.prefetch_factory())
    if prefetch_type is NoPrefetchPolicy and bundle.eviction_name in (None, "lru", "lfu"):
        if slots == 1 or bundle.eviction_name is None:
            kind = "fifo" if slots > 1 else "single"
        else:
            kind = bundle.eviction_name
        return f"noprefetch-{kind}"
    if prefetch_type is OnSelectPrefetchPolicy and bundle.eviction_name is None and slots == 1:
        return "onselect"
    return None


# ---------------------------------------------------------------------------
# shared setup helpers
# ---------------------------------------------------------------------------


def _load_table(
    config: "FleetConfig",
    arch: ReconfigArchitecture,
    region_map: dict[str, list[str]],
) -> dict[tuple[str, str], int]:
    """Per-(region, module) transfer durations through the real builder."""
    sim = Simulator()
    store = arch.make_store()
    for region, modules in region_map.items():
        for module in modules:
            store.register(region, module, config.bitstream_bytes)
    builder = arch.make_builder(sim, store)
    return {
        (region, module): builder.estimate_for(region, module)
        for region, modules in region_map.items()
        for module in modules
    }


# ---------------------------------------------------------------------------
# vectorized cores
# ---------------------------------------------------------------------------


def _vector_noprefetch(
    gaps: np.ndarray,
    regs: np.ndarray,
    mods: np.ndarray,
    *,
    slots: int,
    eviction: Optional[str],
    load_arr: np.ndarray,
    rank_arr: np.ndarray,
    latency_ns: int,
    recorder=None,
) -> tuple[np.ndarray, np.ndarray]:
    """none / lru / lfu at any ``region_slots``: strictly sequential demands.

    Without prefetch the region is always idle when a demand arrives, so a
    step is: hit (active module), resident hit (shared area), or a blocking
    load of ``latency + transfer``.  Multi-slot inserts may overflow the
    area; the victim is the masked argmin of ``metric * (M+1) + name_rank``
    — reproducing ``min(candidates, key=(metric, name))`` with LRU recency,
    LFU frequency, or FIFO insertion order as the metric.
    """
    n_boards, steps = gaps.shape
    n_regions, n_modules = load_arr.shape
    counters = np.zeros((n_boards, _N_COUNTERS), dtype=np.int64)
    t = np.zeros(n_boards, dtype=np.int64)
    # preload: every region ships its first module (index 0) at power-up
    loaded = np.zeros((n_boards, n_regions), dtype=np.int64)
    bi = np.arange(n_boards)
    multi = slots > 1
    if multi:
        resident = np.zeros((n_boards, n_regions, n_modules), dtype=bool)
        resident[:, :, 0] = True
        if eviction == "lru":
            # the LRU clock ticks once per preload in region-map order
            metric_arr = np.zeros((n_boards, n_regions, n_modules), dtype=np.int64)
            clock = np.zeros(n_boards, dtype=np.int64)
            for region in range(n_regions):
                clock += 1
                metric_arr[:, region, 0] = clock
        elif eviction == "lfu":
            metric_arr = np.zeros((n_boards, n_regions, n_modules), dtype=np.int64)
        else:  # FIFO: per-board insertion sequence (order within a region)
            metric_arr = np.zeros((n_boards, n_regions, n_modules), dtype=np.int64)
            clock = np.zeros(n_boards, dtype=np.int64)
            for region in range(n_regions):
                clock += 1
                metric_arr[:, region, 0] = clock
    huge = np.iinfo(np.int64).max
    if recorder is not None:
        # recorded durations include the request latency; the recorder
        # subtracts it in bulk when deriving port occupancy
        recorder.mode = "noprefetch"
        recorder.port_offset_ns = latency_ns
    for step in range(steps):
        gap = gaps[:, step]
        region = regs[:, step]
        module = mods[:, step]
        t_req = t + gap
        counters[:, _I_DEMAND_REQUESTS] += 1
        if multi and eviction == "lru":
            clock += 1
            metric_arr[bi, region, module] = clock
        elif multi and eviction == "lfu":
            metric_arr[bi, region, module] += 1
        active = loaded[bi, region]
        hit = active == module
        if multi:
            res_hit = resident[bi, region, module] & ~hit
        else:
            res_hit = np.zeros(n_boards, dtype=bool)
        miss = ~(hit | res_hit)
        duration = latency_ns + load_arr[region, module]
        stall = np.where(miss, duration, 0)
        counters[:, _I_INSTANT] += hit
        counters[:, _I_RESIDENT] += res_hit
        counters[:, _I_DEMAND_LOADS] += miss
        counters[:, _I_STALL] += stall
        if recorder is not None:
            # every array here already exists for this step, so recording
            # is one tuple append; stalls (duration where miss), hits
            # (~miss) and port occupancy (duration - latency where miss)
            # are derived lazily at the store's first read — counters/t
            # are untouched and digest parity cannot move
            recorder.record_step(t_req, miss, duration)
        t = t_req + stall
        loaded[bi, region] = module
        if multi:
            resident[bi, region, module] = True
            if eviction not in ("lru", "lfu"):
                clock = clock + miss
                metric_arr[bi, region, module] = np.where(
                    miss, clock, metric_arr[bi, region, module]
                )
            over = miss & (resident[bi, region].sum(axis=1) > slots)
            if over.any():
                ob, orr, om = bi[over], region[over], module[over]
                candidates = resident[ob, orr].copy()
                candidates[np.arange(len(ob)), om] = False  # keep the new module
                key = metric_arr[ob, orr] * (n_modules + 1) + rank_arr[orr]
                key = np.where(candidates, key, huge)
                victim = key.argmin(axis=1)
                resident[ob, orr, victim] = False
                counters[ob, _I_EVICTIONS] += 1
                if eviction == "lru":
                    # LRU forgets evicted recency (get(..., 0) after pop)
                    metric_arr[ob, orr, victim] = 0
    return counters, t


def _vector_onselect(
    gaps: np.ndarray,
    regs: np.ndarray,
    mods: np.ndarray,
    *,
    load_arr: np.ndarray,
    latency_ns: int,
    recorder=None,
) -> tuple[np.ndarray, np.ndarray]:
    """fixed / on_select at one slot: announcement-driven speculation.

    The select announcement at ``t_sel`` (the previous completion) starts a
    speculative load unless the module is already active.  The demand a gap
    later joins or queues behind the flight (``t_req <= spec_end``) or finds
    it already swapped in (``t_req > spec_end``).  Either way the prefetch
    is claimed by its own demand, so no prefetch is ever wasted and the
    region returns to idle before the next step.
    """
    n_boards, steps = gaps.shape
    n_regions = load_arr.shape[0]
    counters = np.zeros((n_boards, _N_COUNTERS), dtype=np.int64)
    t = np.zeros(n_boards, dtype=np.int64)
    loaded = np.zeros((n_boards, n_regions), dtype=np.int64)
    bi = np.arange(n_boards)
    if recorder is not None:
        recorder.mode = "onselect"
        recorder.port_offset_ns = 0  # recorded loads are pure transfers
    for step in range(steps):
        gap = gaps[:, step]
        region = regs[:, step]
        module = mods[:, step]
        t_req = t + gap
        counters[:, _I_DEMAND_REQUESTS] += 1
        same = loaded[bi, region] == module
        load = load_arr[region, module]
        spec_end = t + latency_ns + load
        early = ~same & (t_req <= spec_end)
        late = ~same & ~early
        counters[:, _I_INSTANT] += same | late
        counters[:, _I_USEFUL] += ~same
        counters[:, _I_PREFETCH_LOADS] += ~same
        stall = np.where(early, spec_end - t_req, 0)
        counters[:, _I_STALL] += stall
        if recorder is not None:
            # arrays already exist for this step (see _vector_noprefetch);
            # hits are same | late == ~early, and every ~same step runs
            # one speculative transfer of ``load`` through the port
            recorder.record_step(t_req, stall, early, same, load)
        t = np.where(early, spec_end, t_req)
        loaded[bi, region] = module
    return counters, t


# ---------------------------------------------------------------------------
# scalar micro-simulator (the exact fallback for speculative policies)
# ---------------------------------------------------------------------------

_IDLE, _LATENCY, _PORT_WAIT, _XFER = range(4)
_EV_DRIVER, _EV_WAKE, _EV_LAT, _EV_XFER = range(4)


class _MicroJob:
    __slots__ = ("module", "demand", "cancelled", "called_at", "joined", "handed")

    def __init__(self, module: str, demand: bool):
        self.module = module
        self.demand = demand
        self.cancelled = False
        self.called_at = 0
        self.joined = False
        #: handed straight to a parked region process (kernel mailboxes skip
        #: the queue then, so demand cancel-scans never see this job)
        self.handed = False


class _MicroRegion:
    __slots__ = ("name", "modules", "loaded", "loading", "phase", "job", "items",
                 "unclaimed", "inflight_unclaimed", "last_demand", "resident",
                 "history", "wake_scheduled")

    def __init__(self, name: str, modules: Sequence[str]):
        self.name = name
        self.modules = frozenset(modules)
        self.loaded: Optional[str] = None
        self.loading: Optional[str] = None
        self.phase = _IDLE
        self.job: Optional[_MicroJob] = None
        self.items: deque[_MicroJob] = deque()
        self.unclaimed: Optional[str] = None
        self.inflight_unclaimed = False
        self.last_demand: Optional[str] = None
        self.resident: dict[str, None] = {}
        self.history: list[str] = []
        self.wake_scheduled = False


class _BoardSim:
    """One board, replayed on a tiny (time, seq) heap with exact tie-breaks.

    Decision logic (prefetch prediction, victim selection) runs through the
    *real* policy objects; only the event plumbing is re-implemented.  Seq
    numbers are assigned where the kernel assigns its enqueue counters, so
    equal-time events resolve in the same order (see the module docstring).
    """

    def __init__(
        self,
        schedule: Sequence[tuple[int, str, str]],
        runtime_policy: RuntimePolicy,
        region_map: dict[str, list[str]],
        latency_ns: int,
        load_ns: dict[tuple[str, str], int],
        telemetry: Optional[tuple[list, list]] = None,
    ):
        self.policy = runtime_policy.prefetch
        self.eviction = runtime_policy.eviction
        self.observe = getattr(self.policy, "observe", None)
        self.slots = runtime_policy.region_slots
        self.multi = self.slots > 1
        self.latency_ns = latency_ns
        self.load_ns = load_ns
        self.schedule = schedule
        self.regions: dict[str, _MicroRegion] = {}
        for name, modules in region_map.items():
            region = _MicroRegion(name, modules)
            # preload: the first module ships in the startup bitstream
            region.loaded = modules[0]
            region.history.append(modules[0])
            if self.multi:
                region.resident[modules[0]] = None
                if self.eviction is not None:
                    self.eviction.on_insert(name, modules[0])
            self.regions[name] = region
        self.heap: list[tuple[int, int, int, Optional[_MicroRegion]]] = []
        self.seq = 0
        self.port_holder: Optional[_MicroRegion] = None
        self.port_fifo: deque[_MicroRegion] = deque()
        self.index = 0
        self.counters = [0] * _N_COUNTERS
        self.last = 0
        # telemetry event sinks (shared across the fleet's boards): demand
        # completions as (t_req, stall_ns, hit) and port transfers as
        # (end_ns, duration_ns).  None = telemetry off, zero appends.
        self.tel_demands, self.tel_port = telemetry if telemetry else (None, None)

    # -- event plumbing ----------------------------------------------------

    def _sched(self, when: int, kind: int, region: Optional[_MicroRegion]) -> None:
        heapq.heappush(self.heap, (when, self.seq, kind, region))
        self.seq += 1

    def run(self) -> tuple[list[int], int]:
        self._driver_continue(0)
        heap = self.heap
        while heap:
            now, _seq, kind, region = heapq.heappop(heap)
            self.last = now
            if kind == _EV_DRIVER:
                self._driver_wake(now)
            elif kind == _EV_WAKE:
                self._proc_wake(region, now)
            elif kind == _EV_LAT:
                self._latency_end(region, now)
            else:
                self._transfer_end(region, now)
        return self.counters, self.last

    # -- the request driver (Board._drive) ---------------------------------

    def _driver_continue(self, now: int) -> None:
        while True:
            if self.index >= len(self.schedule):
                return
            gap, region_name, module = self.schedule[self.index]
            region = self.regions[region_name]
            target = self.policy.on_select(region_name, module)
            if (
                target is not None
                and target != region.loaded
                and target != region.loading
                and not (self.multi and target in region.resident)
                and target in region.modules
            ):
                self._post(region, _MicroJob(target, demand=False), now)
            if gap:
                self._sched(now + gap, _EV_DRIVER, None)
                return
            if not self._issue_demand(now):
                return
            self.index += 1

    def _driver_wake(self, now: int) -> None:
        if not self._issue_demand(now):
            return
        self.index += 1
        self._driver_continue(now)

    def _issue_demand(self, now: int) -> bool:
        """ensure_loaded(); True when the demand completed immediately."""
        _, region_name, module = self.schedule[self.index]
        region = self.regions[region_name]
        counters = self.counters
        counters[_I_DEMAND_REQUESTS] += 1
        if self.observe is not None:
            self.observe(region.last_demand, module)
        if self.eviction is not None:
            self.eviction.on_demand(region_name, module)
        region.last_demand = module
        if region.loaded == module and region.loading is None:
            if region.unclaimed == module:
                counters[_I_USEFUL] += 1
                region.unclaimed = None
            counters[_I_INSTANT] += 1
            if self.tel_demands is not None:
                self.tel_demands.append((now, 0, True))
            if not region.items:
                self._speculate(region, now)
            return True
        if self.multi and module in region.resident and region.loading is None:
            if region.unclaimed == module:
                counters[_I_USEFUL] += 1
                region.unclaimed = None
            counters[_I_RESIDENT] += 1
            if self.tel_demands is not None:
                self.tel_demands.append((now, 0, True))
            self._activate(region, module)
            if not region.items:
                self._speculate(region, now)
            return True
        if region.loading == module:
            # join the in-flight load; useful only while still unclaimed
            region.unclaimed = None
            if region.inflight_unclaimed:
                counters[_I_USEFUL] += 1
                region.inflight_unclaimed = False
            assert region.job is not None
            region.job.joined = True
            region.job.called_at = now
            return False
        for pending in region.items:
            if not pending.handed and not pending.demand and pending.module != module:
                pending.cancelled = True
        job = _MicroJob(module, demand=True)
        job.called_at = now
        self._post(region, job, now)
        return False

    # -- the region process (manager._region_proc) -------------------------

    def _post(self, region: _MicroRegion, job: _MicroJob, now: int) -> None:
        if region.phase == _IDLE and not region.wake_scheduled:
            job.handed = True
            region.wake_scheduled = True
            self._sched(now, _EV_WAKE, region)
        region.items.append(job)

    def _proc_wake(self, region: _MicroRegion, now: int) -> None:
        region.wake_scheduled = False
        if region.phase != _IDLE:
            return
        if self._pick(region, now):
            self.index += 1
            self._driver_continue(now)

    def _activate(self, region: _MicroRegion, module: str) -> None:
        region.loaded = module
        region.history.append(module)

    def _speculate(self, region: _MicroRegion, now: int) -> None:
        target = self.policy.on_idle(region.name, region.loaded, region.history)
        if (
            target
            and target not in (region.loaded, region.loading)
            and target in region.modules
        ):
            if self.multi and target in region.resident:
                return
            self._post(region, _MicroJob(target, demand=False), now)

    def _pick(self, region: _MicroRegion, now: int) -> bool:
        """Consume queued jobs until one needs a load; True on demand completion."""
        completed = False
        counters = self.counters
        while region.items:
            job = region.items.popleft()
            if job.cancelled or job.module == region.loaded:
                if job.demand and job.module == region.loaded and region.unclaimed == job.module:
                    counters[_I_USEFUL] += 1
                    region.unclaimed = None
                if job.demand:
                    counters[_I_STALL] += now - job.called_at
                    if self.tel_demands is not None:
                        self.tel_demands.append(
                            (job.called_at, now - job.called_at, False)
                        )
                    completed = True
                    if not region.items:
                        self._speculate(region, now)
                continue
            if self.multi and job.module in region.resident:
                if job.demand:
                    if region.unclaimed == job.module:
                        counters[_I_USEFUL] += 1
                        region.unclaimed = None
                    counters[_I_RESIDENT] += 1
                    self._activate(region, job.module)
                    counters[_I_STALL] += now - job.called_at
                    if self.tel_demands is not None:
                        self.tel_demands.append(
                            (job.called_at, now - job.called_at, True)
                        )
                    completed = True
                    if not region.items:
                        self._speculate(region, now)
                continue
            region.job = job
            region.phase = _LATENCY
            self._sched(now + self.latency_ns, _EV_LAT, region)
            return completed
        region.phase = _IDLE
        return completed

    def _latency_end(self, region: _MicroRegion, now: int) -> None:
        job = region.job
        assert job is not None
        region.loading = job.module
        region.inflight_unclaimed = not job.demand
        if self.port_holder is None:
            self.port_holder = region
            region.phase = _XFER
            self._sched(now + self.load_ns[(region.name, job.module)], _EV_XFER, region)
        else:
            region.phase = _PORT_WAIT
            self.port_fifo.append(region)

    def _transfer_end(self, region: _MicroRegion, now: int) -> None:
        counters = self.counters
        job = region.job
        assert job is not None
        if self.tel_port is not None:
            # the transfer that just released the port, attributed to its
            # end window (demand and speculative loads alike)
            self.tel_port.append((now, self.load_ns[(region.name, job.module)]))
        # 1. the region process's post-load bookkeeping (urgent completion)
        previous = region.loaded
        if not self.multi and region.unclaimed is not None and region.unclaimed == previous:
            counters[_I_WASTED] += 1
            region.unclaimed = None
        region.loaded = job.module
        region.loading = None
        region.history.append(job.module)
        if self.multi:
            region.resident[job.module] = None
            if self.eviction is not None:
                self.eviction.on_insert(region.name, job.module)
            self._evict_overflow(region, keep=job.module)
        if job.demand:
            counters[_I_DEMAND_LOADS] += 1
        else:
            counters[_I_PREFETCH_LOADS] += 1
            if region.inflight_unclaimed:
                region.unclaimed = job.module
        region.inflight_unclaimed = False
        completed = job.demand or job.joined
        if completed:
            counters[_I_STALL] += now - job.called_at
            if self.tel_demands is not None:
                self.tel_demands.append((job.called_at, now - job.called_at, False))
        if job.demand and not region.items:
            self._speculate(region, now)
        # 2. port hand-off: the FIFO head's transfer starts inside this
        #    cascade, before the next queued job or the driver resume
        if self.port_fifo:
            waiter = self.port_fifo.popleft()
            self.port_holder = waiter
            waiter.phase = _XFER
            assert waiter.job is not None
            self._sched(now + self.load_ns[(waiter.name, waiter.job.module)], _EV_XFER, waiter)
        else:
            self.port_holder = None
        # 3. the region process takes its next queued job
        region.job = None
        if self._pick(region, now):
            completed = True
        # 4. the driver's stall chain resumes last
        if completed:
            self.index += 1
            self._driver_continue(now)

    def _evict_overflow(self, region: _MicroRegion, keep: str) -> None:
        while len(region.resident) > self.slots:
            candidates = [m for m in region.resident if m != keep]
            if not candidates:
                return
            if self.eviction is not None:
                victim = self.eviction.choose_victim(region.name, candidates)
                self.eviction.on_evict(region.name, victim)
            else:
                victim = candidates[0]
            del region.resident[victim]
            self.counters[_I_EVICTIONS] += 1
            if region.unclaimed == victim:
                self.counters[_I_WASTED] += 1
                region.unclaimed = None


# ---------------------------------------------------------------------------
# fleet-level entry point
# ---------------------------------------------------------------------------


def simulate_fast_fleet(
    config: "FleetConfig",
    schedules: ScheduleSet,
    arch: ReconfigArchitecture,
    recorder=None,
) -> tuple[list[dict], list[int], FastRunStats]:
    """Replay ``schedules`` under ``config``'s policy without the kernel.

    ``schedules`` is the fleet's array set, in ``config.region_map()``
    order: the vector cores step through its ``(boards, requests)`` arrays
    as they are, and the scalar fallback decodes one board at a time.

    Returns per-board stats dicts (``ManagerStats.to_dict()`` form, in
    schedule order), per-board end times (the last event on each board),
    and the engine's execution stats.

    ``recorder`` (a :class:`repro.runtime.fleet.FleetTelemetryRecorder`)
    collects windowed telemetry as per-step array references on the vector
    cores and per-event tuples on the scalar fallback; all aggregation is
    deferred to the recorder's flush, so the simulated outcome is
    bit-identical with or without it.
    """
    bundle = get_bundle(config.policy)
    region_map = config.region_map()
    latency_ns = arch.request_latency_ns
    load_ns = _load_table(config, arch, region_map)
    mode = vector_mode(config.policy, config.region_slots)
    slots = config.region_slots if config.region_slots is not None else bundle.region_slots
    n_boards = len(schedules)
    if mode is not None and n_boards:
        n_modules = max(len(mods) for mods in region_map.values())
        load_arr = np.zeros((len(region_map), n_modules), dtype=np.int64)
        rank_arr = np.zeros((len(region_map), n_modules), dtype=np.int64)
        for r, (name, modules) in enumerate(region_map.items()):
            for i, module in enumerate(modules):
                load_arr[r, i] = load_ns[(name, module)]
                rank_arr[r, i] = sorted(modules).index(module)
        gaps, regs, mods = schedules.gaps, schedules.regions, schedules.modules
        if mode == "onselect":
            counters, ends = _vector_onselect(
                gaps, regs, mods, load_arr=load_arr, latency_ns=latency_ns,
                recorder=recorder,
            )
        else:
            counters, ends = _vector_noprefetch(
                gaps, regs, mods,
                slots=slots,
                eviction=bundle.eviction_name,
                load_arr=load_arr,
                rank_arr=rank_arr,
                latency_ns=latency_ns,
                recorder=recorder,
            )
        rows = [ManagerStats.from_counters(row).to_dict() for row in counters]
        end_times = [int(e) for e in ends]
        stats = FastRunStats(
            mode=f"vector:{mode}",
            vector_boards=n_boards,
            scalar_boards=0,
            vector_steps=int(gaps.shape[1]),
        )
        return rows, end_times, stats
    rows = []
    end_times = []
    telemetry = (
        (recorder.scalar_demands, recorder.scalar_port)
        if recorder is not None else None
    )
    for schedule in schedules:
        future = future_from_schedule(schedule) if bundle.needs_future else None
        runtime_policy = create_policy(
            config.policy, future=future, region_slots=config.region_slots
        )
        board = _BoardSim(
            schedule, runtime_policy, region_map, latency_ns, load_ns,
            telemetry=telemetry,
        )
        counters, end = board.run()
        rows.append(ManagerStats.from_counters(counters).to_dict())
        end_times.append(end)
    stats = FastRunStats(
        mode="scalar" if mode is None else f"vector:{mode}",
        vector_boards=0,
        scalar_boards=n_boards,
        vector_steps=0,
    )
    return rows, end_times, stats
