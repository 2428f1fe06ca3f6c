"""The batched fleet engine: array-state request simulation without a heap.

Fleet boards interact only through the shared calendar's event ordering —
each board owns its store, builder and manager, so per-board outcomes are a
pure function of ``(schedule, policy, architecture)``.  That independence
means fleet results need no global event heap at all: this module replays
the same request schedules against the same management semantics as the
kernel path, but advances state per *request step* instead of per *event*.

Schedules arrive as a :class:`~repro.runtime.traffic.ScheduleSet`, which
is born as ``(boards, requests)`` int arrays.  The cores read those arrays
as they are — no packing step — so a timed run on a pre-generated set (the
fleet benchmark's ``fast.requests_per_sec``) times the cores alone.

**Jobs, not events.**  Every load first pays the same request latency
``L``, so the configuration port grants loads in the order they *start*,
and a job's transfer end is fixed the moment it starts:
``end = max(start + L, port_free) + transfer``, where ``port_free`` is the
end of the board's previously started job.  A landing with no queued job
behind it changes only its own region, so it can be applied lazily when
that region is next touched.  Only coincidences with the driver's request
instant need event order; the one that matters on generated traffic has an
exact rule (see :func:`_vector_speculate`), and the rest — a transfer end
on the request instant, or a zero gap — send that board to the kernel.

Every policy bundle at every ``region_slots`` has a core, picked by
:func:`vector_mode`:

- ``noprefetch-*`` (``none``/``lru``/``lfu``/``belady``): demands never
  overlap loads, so a step is hit / resident hit / miss with
  ``stall = latency + transfer`` on a miss, plus masked insert/evict
  updates on a resident cube whose victim metric is LRU recency, LFU
  frequency, FIFO insertion order or Belady's next use (one reverse scan
  over the module matrix).
- ``onselect`` / ``onselect-fifo`` (``fixed``/``on_select``): the select
  announcement at the previous completion starts a load that the demand a
  gap later joins or finds landed; multi-slot areas add the resident block.
- ``speculate`` (``history``/``confidence``/``markov`` at one slot): the
  predictors' count tables are ``(board, module, module)`` tensors, and a
  step is instant hit, join of the in-flight speculation, idle miss, or
  "behind a speculation" (it lands, then the demand completes or reloads).
- ``chrono``: multi-slot speculation, and the rare one-slot boards that
  queue a second speculation behind a flight, run the board's jobs in
  chronological order on :class:`_ChronoBoard`, driving the real policy
  objects.

The kernel (:mod:`repro.runtime.fleet`'s ``engine="kernel"``) stays the one
reference: ``tests/runtime/test_fast.py`` pins every core's per-board
counters and end times to it, and tie boards replay on it.  Counter rows
use the :data:`~repro.reconfig.manager.COUNTER_FIELDS` layout and are
rebuilt through :meth:`ManagerStats.from_counters`, so the array form and
the manager's dataclass can never disagree on field order.

Preconditions (all guaranteed by the fleet driver): size-only bitstream
registration (CRC always verifies), no readback verification, no upset
injection — the failure/retry counters stay zero on both paths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.reconfig.architectures import ReconfigArchitecture
from repro.reconfig.manager import COUNTER_FIELDS, ManagerStats
from repro.reconfig.prefetch import (
    HistoryPrefetchPolicy,
    MarkovPrefetchPolicy,
    NoPrefetchPolicy,
    OnSelectPrefetchPolicy,
)
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

    #: ``vector:<core>``, the core :func:`vector_mode` picked
    mode: str
    #: boards whose outcome the array engine computed (core or chrono loop)
    vector_boards: int
    #: boards replayed on the kernel because of an event tie
    scalar_boards: int
    #: per-step vector updates executed (== requests_per_board)
    vector_steps: int
    #: boards of ``vector_boards`` that ran on the chronological job loop
    loop_boards: int = 0

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "vector_boards": self.vector_boards,
            "scalar_boards": self.scalar_boards,
            "vector_steps": self.vector_steps,
            "loop_boards": self.loop_boards,
        }


def vector_mode(policy: str, region_slots: Optional[int] = None) -> str:
    """The core handling ``policy`` at ``region_slots``.

    The class checks are exact (``type is``): a subclassed policy may
    override behaviour the closed forms assume, so anything unrecognised
    runs on ``chrono``, the chronological job loop over the real policy
    objects.
    """
    bundle = get_bundle(policy)
    slots = region_slots if region_slots is not None else bundle.region_slots
    multi = slots > 1
    prefetch_type = type(bundle.prefetch_factory())
    eviction = bundle.eviction_name
    if prefetch_type is NoPrefetchPolicy and eviction in (None, "lru", "lfu", "belady"):
        # one slot makes eviction bookkeeping unobservable
        kind = (eviction or "fifo") if multi else "single"
        return f"noprefetch-{kind}"
    if prefetch_type is OnSelectPrefetchPolicy and eviction is None:
        return "onselect-fifo" if multi else "onselect"
    if prefetch_type in _PREDICTORS and eviction is None and not multi:
        return "speculate"
    return "chrono"


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


def _evict(resident, metric, rank, ob, orr, om, counters, largest: bool = False):
    """Evict one candidate per overflowing ``(board, region)`` row.

    Candidates are the resident modules except ``om``, the one just
    inserted.  The victim is the masked argmin of ``metric * (M+1) +
    name_rank`` (``largest``: argmax), reproducing the policies'
    ``min``/``max`` over ``(metric, name)`` keys.
    """
    n_modules = resident.shape[2]
    candidates = resident[ob, orr].copy()
    candidates[np.arange(len(ob)), om] = False
    key = metric[ob, orr] * (n_modules + 1) + rank[orr]
    if largest:
        key = -key
    victim = np.where(candidates, key, np.iinfo(np.int64).max).argmin(axis=1)
    resident[ob, orr, victim] = False
    counters[_I_EVICTIONS, ob] += 1
    return victim


def _fifo_cube(n_boards: int, n_regions: int, n_modules: int):
    """Preloaded resident cube and FIFO insertion clocks (region-map order)."""
    resident = np.zeros((n_boards, n_regions, n_modules), dtype=bool)
    resident[:, :, 0] = True
    clock = np.full(n_boards, n_regions, dtype=np.int64)
    inserted = np.zeros((n_boards, n_regions, n_modules), dtype=np.int64)
    inserted[:, :, 0] = np.arange(1, n_regions + 1)
    return resident, inserted, clock


# ---------------------------------------------------------------------------
# vectorized cores
# ---------------------------------------------------------------------------


def _next_uses(regs: np.ndarray, mods: np.ndarray, n_regions: int, n_modules: int):
    """Belady's index, by one reverse scan over the schedule arrays.

    Returns ``(after, first)``: ``after[b, s]`` is the next step of board
    ``b`` demanding step ``s``'s ``(region, module)`` again, and
    ``first[b, r, m]`` the first step demanding ``(r, m)``.  A module never
    demanded again reads ``steps``, beyond every real use.
    """
    n_boards, steps = regs.shape
    bi = np.arange(n_boards)
    after = np.empty((n_boards, steps), dtype=np.int64, order="F")
    seen = np.full((n_boards, n_regions, n_modules), steps, dtype=np.int64)
    for step in range(steps - 1, -1, -1):
        region, module = regs[:, step], mods[:, step]
        after[:, step] = seen[bi, region, module]
        seen[bi, region, module] = step
    return after, seen


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
    """none / lru / lfu / belady at any ``region_slots``: sequential demands.

    Without prefetch the region is always idle when a demand arrives, so a
    step is: hit (active module), resident hit (shared area), or a blocking
    load of ``latency + transfer``.  Multi-slot inserts may overflow the
    area; :func:`_evict` picks the victim with LRU recency, LFU frequency,
    FIFO insertion order or Belady's next use as the metric.
    """
    n_boards, steps = gaps.shape
    n_regions, n_modules = load_arr.shape
    counters = np.zeros((_N_COUNTERS, n_boards), dtype=np.int64)
    t = np.zeros(n_boards, dtype=np.int64)
    # preload: every region ships its first module (index 0) at power-up
    loaded = np.zeros((n_boards, n_regions), dtype=np.int64)
    bi = np.arange(n_boards)
    multi = slots > 1
    if multi:
        # LRU's clock ticks once per preload in region-map order, exactly
        # like FIFO's insertion sequence
        resident, metric_arr, clock = _fifo_cube(n_boards, n_regions, n_modules)
        if eviction == "lfu":
            metric_arr[:] = 0
        elif eviction == "belady":
            after, metric_arr = _next_uses(regs, mods, n_regions, n_modules)
    if recorder is not None:
        recorder.mode = "noprefetch"
        recorder.port_offset_ns = latency_ns
    for step in range(steps):
        gap = gaps[:, step]
        region = regs[:, step]
        module = mods[:, step]
        t_req = t + gap
        counters[_I_DEMAND_REQUESTS] += 1
        if multi and eviction == "lru":
            clock += 1
            metric_arr[bi, region, module] = clock
        elif multi and eviction == "lfu":
            metric_arr[bi, region, module] += 1
        elif multi and eviction == "belady":
            metric_arr[bi, region, module] = after[:, step]
        active = loaded[bi, region]
        hit = active == module
        if multi:
            res_hit = resident[bi, region, module] & ~hit
            miss = ~(hit | res_hit)
            counters[_I_RESIDENT] += res_hit
        else:
            miss = ~hit
        duration = latency_ns + load_arr[region, module]
        stall = np.where(miss, duration, 0)
        counters[_I_INSTANT] += hit
        counters[_I_DEMAND_LOADS] += miss
        counters[_I_STALL] += stall
        if recorder is not None:
            # every array here already exists for this step, so recording
            # is one tuple append; stalls, hits and port transfers are
            # derived lazily at the store's first read — counters/t are
            # untouched and digest parity cannot move
            recorder.record_step(t_req, miss, duration)
        t = t_req + stall
        loaded[bi, region] = module
        if multi:
            resident[bi, region, module] = True
            if eviction is None:
                clock = clock + miss
                metric_arr[bi, region, module] = np.where(
                    miss, clock, metric_arr[bi, region, module]
                )
            over = miss & (resident[bi, region].sum(axis=1) > slots)
            if over.any():
                ob, orr = bi[over], region[over]
                victim = _evict(
                    resident, metric_arr, rank_arr, ob, orr, module[over], counters,
                    largest=eviction == "belady",
                )
                if eviction == "lru":
                    # LRU forgets evicted recency (get(..., 0) after pop)
                    metric_arr[ob, orr, victim] = 0
    return counters, t


def _vector_onselect(
    gaps: np.ndarray,
    regs: np.ndarray,
    mods: np.ndarray,
    *,
    slots: int,
    load_arr: np.ndarray,
    rank_arr: np.ndarray,
    latency_ns: int,
    recorder=None,
) -> tuple[np.ndarray, np.ndarray]:
    """fixed / on_select at any ``region_slots``: announcement-driven loads.

    Every region is idle when a step starts.  The select announcement at
    ``t_sel`` (the previous completion) starts a load unless the module is
    active or resident; it lands at ``spec_end = t_sel + latency +
    transfer``.  The demand a gap later joins or queues behind the flight
    (``t_req <= spec_end``: completion at ``spec_end``, no hit counters)
    or finds it landed (``t_req > spec_end``: instant hit).  Either way its
    own demand claims the prefetch, so none is ever wasted.  Multi-slot
    areas insert the landed module and evict FIFO, like the no-prefetch
    core.
    """
    n_boards, steps = gaps.shape
    n_regions, n_modules = load_arr.shape
    counters = np.zeros((_N_COUNTERS, n_boards), dtype=np.int64)
    t = np.zeros(n_boards, dtype=np.int64)
    loaded = np.zeros((n_boards, n_regions), dtype=np.int64)
    bi = np.arange(n_boards)
    multi = slots > 1
    if multi:
        resident, inserted, clock = _fifo_cube(n_boards, n_regions, n_modules)
    if recorder is not None:
        recorder.mode = "onselect"
        recorder.port_offset_ns = 0  # recorded loads are pure transfers
    for step in range(steps):
        gap = gaps[:, step]
        region = regs[:, step]
        module = mods[:, step]
        t_req = t + gap
        counters[_I_DEMAND_REQUESTS] += 1
        same = loaded[bi, region] == module
        if multi:
            res_hit = resident[bi, region, module] & ~same
            fetch = ~(same | res_hit)
            counters[_I_RESIDENT] += res_hit
        else:
            fetch = ~same
        load = load_arr[region, module]
        spec_end = t + latency_ns + load
        early = fetch & (t_req <= spec_end)
        counters[_I_INSTANT] += fetch ^ early | same
        counters[_I_USEFUL] += fetch
        counters[_I_PREFETCH_LOADS] += fetch
        stall = np.where(early, spec_end - t_req, 0)
        counters[_I_STALL] += stall
        if recorder is not None:
            # arrays already exist for this step (see _vector_noprefetch);
            # hits are ~early, and every fetch step runs one transfer of
            # ``load`` through the port, landing at ``spec_end``
            recorder.record_step(t_req, spec_end, early, fetch, load)
        t = np.where(early, spec_end, t_req)
        loaded[bi, region] = module
        if multi:
            resident[bi, region, module] = True
            clock = clock + fetch
            inserted[bi, region, module] = np.where(
                fetch, clock, inserted[bi, region, module]
            )
            over = fetch & (resident[bi, region].sum(axis=1) > slots)
            if over.any():
                _evict(
                    resident, inserted, rank_arr, bi[over], region[over],
                    module[over], counters,
                )
    return counters, t


# -- array predictors for the speculate core -----------------------------------


class _Table:
    """Successor counts for many ``(context -> next)`` rows at once.

    Each row keeps its total and its current best successor, so a step
    costs a few flat gathers however many modules there are: one count
    grows per observation, and the best can only move to that module.
    Ties go to the larger module *name* (``max`` over ``(count, name)``),
    hence the name rank.
    """

    def __init__(self, n_rows: int, rank: np.ndarray):
        self.n_modules = len(rank)
        self.rank = rank
        self.counts = np.zeros(n_rows * self.n_modules, dtype=np.int64)
        self.totals = np.zeros(n_rows, dtype=np.int64)
        self.best = np.zeros(n_rows, dtype=np.int64)

    def add(self, rows: np.ndarray, nxt: np.ndarray, seen: np.ndarray) -> None:
        """Count ``rows -> nxt`` where ``seen`` (one row per board)."""
        cell = rows * self.n_modules + nxt
        count = self.counts[cell] + seen
        best = self.best[rows]
        best_count = self.counts[rows * self.n_modules + best]
        self.counts[cell] = count
        self.totals[rows] += seen
        wins = seen & (
            (count > best_count) | ((count == best_count) & (self.rank[nxt] > self.rank[best]))
        )
        self.best[rows] = np.where(wins, nxt, best)

    def predict(self, rows: np.ndarray, min_confidence: float) -> np.ndarray:
        """Each row's best successor, or -1 below the float ``best / total`` bar."""
        best = self.best[rows]
        best_count = self.counts[rows * self.n_modules + best]
        totals = self.totals[rows]
        confident = (totals > 0) & ~(best_count / np.maximum(totals, 1) < min_confidence)
        return np.where(confident, best, -1)


class _HistoryTables:
    """:class:`HistoryPrefetchPolicy` for every board: one ``(M, M)`` table
    of demand transitions per board, shared by its regions."""

    def __init__(self, n_boards: int, rank: np.ndarray, min_confidence: float):
        self.n_modules = len(rank)
        self.base = np.arange(n_boards) * self.n_modules
        self.min_confidence = min_confidence
        self.first = _Table(n_boards * self.n_modules, rank)

    def observe(self, prev: np.ndarray, nxt: np.ndarray) -> None:
        self.first.add(self.base + np.maximum(prev, 0), nxt, prev >= 0)

    def predict(self, current: np.ndarray) -> np.ndarray:
        return self.first.predict(self.base + current, self.min_confidence)


class _MarkovTables(_HistoryTables):
    """:class:`MarkovPrefetchPolicy` for every board: the first-order table
    plus an ``(M, M, M)`` pair table and the board-wide last demand pair."""

    def __init__(self, n_boards: int, rank: np.ndarray, min_confidence: float):
        super().__init__(n_boards, rank, min_confidence)
        self.second = _Table(n_boards * self.n_modules * self.n_modules, rank)
        self.before = np.full(n_boards, -1, dtype=np.int64)
        self.last = np.full(n_boards, -1, dtype=np.int64)

    def _pair_rows(self) -> np.ndarray:
        n = self.n_modules
        return (self.base + np.maximum(self.before, 0)) * n + np.maximum(self.last, 0)

    def observe(self, prev: np.ndarray, nxt: np.ndarray) -> None:
        super().observe(prev, nxt)
        self.second.add(self._pair_rows(), nxt, (prev >= 0) & (self.last == prev))
        self.before = prev
        self.last = np.where(prev >= 0, nxt, -1)

    def predict(self, current: np.ndarray) -> np.ndarray:
        first = super().predict(current)
        in_pair = (self.last >= 0) & (self.last == current)
        second = np.where(in_pair, self.second.predict(self._pair_rows(), self.min_confidence), -1)
        return np.where(second >= 0, second, first)


_PREDICTORS = {HistoryPrefetchPolicy: _HistoryTables, MarkovPrefetchPolicy: _MarkovTables}


def _vector_speculate(
    gaps: np.ndarray,
    regs: np.ndarray,
    mods: np.ndarray,
    *,
    predictor,
    load_arr: np.ndarray,
    latency_ns: int,
    recorder=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """history / confidence / markov at one slot: idle-time speculation.

    After each demand completes, its region speculates on the predicted
    successor: a load starting at the completion.  A region holds at most
    one such flight; landings are applied when the region is next touched.
    A demand for ``m`` at ``t_req`` is then one of:

    - **instant hit**: the active (or landed) module is ``m``; speculate
      now;
    - **join**: the flight carries ``m`` and its latency is over; complete
      at its landing, with no speculation after;
    - **idle miss**: a demand load starting at ``t_req``;
    - **behind a speculation**: the flight lands, then the demand completes
      (``m`` is the flight's module) or loads from the landing time.  A
      demand for the still-active module during the flight's latency is an
      instant hit instead.

    **Latency-end tie** (``t_req == start + L`` in the demanded region):
    the latency end fires first, so the demand sees the flight loading,
    unless the flight started at the previous completion through a wake (a
    speculation after an instant hit into an idle region); then the demand
    comes first and still sees it in its latency.

    Returns counters, end times, and two board masks: ``queued`` — an
    instant hit inside a flight's latency queued a second speculation, so
    the board must run on the chronological loop — and ``tied`` — a
    transfer end fell on a request instant, or a gap was zero, so the board
    must replay on the kernel.
    """
    n_boards, steps = gaps.shape
    n_regions = load_arr.shape[0]
    latency = latency_ns
    counters = np.zeros((_N_COUNTERS, n_boards), dtype=np.int64)
    row = np.arange(n_boards) * n_regions
    t = np.zeros(n_boards, dtype=np.int64)
    port_free = np.zeros(n_boards, dtype=np.int64)
    # per-(board, region) state, flattened: cell = board * regions + region
    cells = n_boards * n_regions
    loaded = np.zeros(cells, dtype=np.int64)
    unclaimed = np.zeros(cells, dtype=bool)
    last_demand = np.full(cells, -1, dtype=np.int64)
    #: the region's speculation in flight: module (-1: none), start, end
    #: (-1: none, so no request instant can equal it), and whether it
    #: started through a wake
    flight = np.full(cells, -1, dtype=np.int64)
    flight_start = np.zeros(cells, dtype=np.int64)
    flight_end = np.full(cells, -1, dtype=np.int64)
    flight_wake = np.zeros(cells, dtype=bool)
    region_ends = [flight_end[r::n_regions] for r in range(n_regions)]
    queued = np.zeros(n_boards, dtype=bool)
    tied = np.zeros(n_boards, dtype=bool)
    if recorder is not None:
        recorder.mode = "speculate"
        recorder.port_offset_ns = 0
    for step in range(steps):
        gap = gaps[:, step]
        region = regs[:, step]
        module = mods[:, step]
        cell = row + region
        t_prev = t
        t_req = t + gap
        tied |= gap == 0
        for ends in region_ends:
            tied |= ends == t_req
        spec = flight[cell]
        start = flight_start[cell]
        end = flight_end[cell]
        landed = (spec >= 0) & (end < t_req)
        active = (spec >= 0) & ~landed
        current = np.where(landed, spec, loaded[cell])
        uncl = unclaimed[cell] | landed
        lat_end = start + latency
        in_latency = active & (
            (t_req < lat_end)
            | ((t_req == lat_end) & (start == t_prev) & flight_wake[cell])
        )
        same = current == module
        idle_hit = ~active & same
        idle_miss = ~active & ~same
        join = active & ~in_latency & (spec == module)
        latency_hit = in_latency & same
        behind_same = in_latency & (spec == module)
        reload = idle_miss | (active & ~(join | latency_hit | behind_same))
        # the demand: observe first, predictions below see this transition
        prev = last_demand[cell]
        last_demand[cell] = module
        predictor.observe(prev, module)
        counters[_I_DEMAND_REQUESTS] += 1
        hit = idle_hit | latency_hit
        counters[_I_INSTANT] += hit
        counters[_I_USEFUL] += (idle_hit & uncl) | join | behind_same
        counters[_I_WASTED] += (idle_miss & uncl) | (reload & active)
        counters[_I_DEMAND_LOADS] += reload
        load = load_arr[region, module]
        load_end = np.maximum(np.where(idle_miss, t_req, end) + latency, port_free) + load
        port_free = np.where(reload, load_end, port_free)
        done = np.where(reload, load_end, np.where(join | behind_same, end, t_req))
        stall = done - t_req
        counters[_I_STALL] += stall
        loaded[cell] = module
        unclaimed[cell] = False
        # speculation at the completion (a latency hit keeps its flight)
        target = predictor.predict(module)
        want = (target >= 0) & (target != module)
        queued |= latency_hit & want
        go = want & ~(join | latency_hit)
        spec_load = load_arr[region, np.maximum(target, 0)]
        spec_end = np.maximum(done + latency, port_free) + spec_load
        port_free = np.where(go, spec_end, port_free)
        flight[cell] = np.where(go, target, np.where(latency_hit, spec, -1))
        flight_start[cell] = np.where(go, done, start)
        flight_end[cell] = np.where(go, spec_end, np.where(latency_hit, end, -1))
        # a kept flight started before t_req, so its wake flag is moot
        flight_wake[cell] = idle_hit
        counters[_I_PREFETCH_LOADS] += go
        if recorder is not None:
            recorder.record_step(
                t_req, stall, hit, reload, load_end, load, go, spec_end, spec_load
            )
        t = done
    return counters, np.maximum(t, port_free), queued, tied


# ---------------------------------------------------------------------------
# the chronological job loop
# ---------------------------------------------------------------------------


class _Job:
    __slots__ = ("module", "demand", "cancelled", "called_at", "joined",
                 "unclaimed", "start", "end", "wake")

    def __init__(self, module: str, demand: bool, called_at: int = 0):
        self.module = module
        self.demand = demand
        self.cancelled = False
        self.called_at = called_at
        self.joined = False
        #: speculative and not yet claimed by a demand
        self.unclaimed = not demand
        self.start = self.end = 0
        self.wake = False


class _Region:
    __slots__ = ("name", "modules", "loaded", "history", "resident", "unclaimed",
                 "last_demand", "job", "queue")

    def __init__(self, name: str, modules: Sequence[str]):
        self.name = name
        self.modules = frozenset(modules)
        self.loaded: Optional[str] = None
        self.history: list[str] = []
        self.resident: dict[str, None] = {}
        self.unclaimed: Optional[str] = None
        self.last_demand: Optional[str] = None
        #: the job past the mailbox (latency, port wait or transfer)
        self.job: Optional[_Job] = None
        self.queue: deque[_Job] = deque()


def _earliest(flights: list[_Region]) -> _Region:
    """The region whose job lands first (transfer ends never coincide)."""
    if len(flights) == 1:
        return flights[0]
    return min(flights, key=lambda region: region.job.end)


class _ChronoBoard:
    """One board's jobs in chronological order, without an event heap.

    Mirrors :class:`~repro.reconfig.manager.ReconfigurationManager` step
    for step with the real policy objects, but a job's landing time is
    computed when it starts (see the module docstring), so the only events
    are the driver's requests and the landings, taken earliest first.
    """

    def __init__(
        self,
        runtime_policy: RuntimePolicy,
        region_map: dict[str, list[str]],
        latency_ns: int,
        load_ns: dict[tuple[str, str], int],
        sink=None,
    ):
        self.policy = runtime_policy.prefetch
        self.eviction = runtime_policy.eviction
        self.observe = getattr(self.policy, "observe", None)
        self.slots = runtime_policy.region_slots
        self.multi = self.slots > 1
        self.latency_ns = latency_ns
        self.load_ns = load_ns
        self.counters = [0] * _N_COUNTERS
        #: end of the last started job; every job lands, so the last event
        self.port_free = 0
        #: regions with a job past the mailbox, i.e. a landing pending
        self.flights: list[_Region] = []
        #: completion time of the demand the driver waits on
        self.done_at: Optional[int] = None
        self.demands = sink.scalar_demands if sink is not None else None
        self.port = sink.scalar_port if sink is not None else None
        self.regions: dict[str, _Region] = {}
        for name, modules in region_map.items():
            region = _Region(name, modules)
            # preload: the first module ships in the startup bitstream
            region.loaded = modules[0]
            region.history.append(modules[0])
            if self.multi:
                region.resident[modules[0]] = None
                if self.eviction is not None:
                    self.eviction.on_insert(name, modules[0])
            self.regions[name] = region

    def run(self, schedule: Sequence[tuple[int, str, str]]) -> Optional[tuple[list[int], int]]:
        """Counters and end time, or None when an event tie needs the kernel."""
        t = 0
        latency = self.latency_ns
        for gap, name, module in schedule:
            region = self.regions[name]
            target = self.policy.on_select(name, module)
            if target is not None:
                job = region.job
                # a latency end due now fired before the driver resumed
                loading = job.module if job is not None and job.start + latency <= t else None
                if (
                    target != region.loaded
                    and target != loading
                    and not (self.multi and target in region.resident)
                    and target in region.modules
                ):
                    self._post(region, _Job(target, demand=False), t, wake=True)
            if gap == 0:
                return None
            t_req = t + gap
            flights = self.flights
            while flights:
                landing = _earliest(flights)
                if landing.job.end >= t_req:
                    if landing.job.end == t_req:
                        return None
                    break
                self._land(landing)
            self.done_at = None
            self._demand(region, module, t_req, t)
            while self.done_at is None:
                self._land(_earliest(flights))
            t = self.done_at
        while self.flights:
            self._land(_earliest(self.flights))
        return self.counters, max(t, self.port_free)

    # -- jobs --------------------------------------------------------------

    def _start(self, region: _Region, job: _Job, now: int, wake: bool) -> None:
        load = self.load_ns[(region.name, job.module)]
        job.start = now
        job.wake = wake
        ready = now + self.latency_ns
        job.end = (ready if ready > self.port_free else self.port_free) + load
        self.port_free = job.end
        region.job = job
        self.flights.append(region)
        if self.port is not None:
            self.port.append((job.end, load))

    def _post(self, region: _Region, job: _Job, now: int, wake: bool) -> None:
        """Mailbox post: an idle region process starts the job at once."""
        if region.job is None and not region.queue:
            self._start(region, job, now, wake)
        else:
            region.queue.append(job)

    def _complete(self, called_at: int, now: int, hit: bool) -> None:
        self.counters[_I_STALL] += now - called_at
        if self.demands is not None:
            self.demands.append((called_at, now - called_at, hit))
        self.done_at = now

    # -- the manager's three entry points -----------------------------------

    def _demand(self, region: _Region, module: str, t_req: int, t_prev: int) -> None:
        """``ensure_loaded`` at ``t_req``; the driver resumed at ``t_prev``."""
        counters = self.counters
        counters[_I_DEMAND_REQUESTS] += 1
        if self.observe is not None:
            self.observe(region.last_demand, module)
        if self.eviction is not None:
            self.eviction.on_demand(region.name, module)
        region.last_demand = module
        job = region.job
        loading = None
        if job is not None:
            lat_end = job.start + self.latency_ns
            if t_req > lat_end or (t_req == lat_end and (
                job.start < t_prev or (job.start == t_prev and not job.wake)
            )):
                loading = job.module
        if loading is None and (
            region.loaded == module or (self.multi and module in region.resident)
        ):
            if region.unclaimed == module:
                counters[_I_USEFUL] += 1
                region.unclaimed = None
            if region.loaded == module:
                counters[_I_INSTANT] += 1
            else:
                counters[_I_RESIDENT] += 1
                self._activate(region, module)
            self._complete(t_req, t_req, True)
            if not region.queue:
                self._speculate(region, t_req, loading, wake=True)
            return
        if loading == module:
            # join the flight; useful only while still unclaimed
            region.unclaimed = None
            if job.unclaimed:
                counters[_I_USEFUL] += 1
                job.unclaimed = False
            job.joined = True
            job.called_at = t_req
            return
        for pending in region.queue:
            if not pending.demand and pending.module != module:
                pending.cancelled = True
        self._post(region, _Job(module, demand=True, called_at=t_req), t_req, wake=True)

    def _speculate(self, region: _Region, now: int, loading: Optional[str], wake: bool) -> None:
        target = self.policy.on_idle(region.name, region.loaded, region.history)
        if target and target not in (region.loaded, loading) and target in region.modules:
            if self.multi and target in region.resident:
                return
            self._post(region, _Job(target, demand=False), now, wake)

    def _land(self, region: _Region) -> None:
        """The region process after a transfer, then its next queued jobs."""
        counters = self.counters
        job = region.job
        now = job.end
        previous = region.loaded
        if not self.multi and region.unclaimed is not None and region.unclaimed == previous:
            counters[_I_WASTED] += 1
            region.unclaimed = None
        region.job = None
        self.flights.remove(region)
        region.loaded = job.module
        region.history.append(job.module)
        if self.multi:
            region.resident[job.module] = None
            if self.eviction is not None:
                self.eviction.on_insert(region.name, job.module)
            if len(region.resident) > self.slots:
                self._evict_overflow(region, keep=job.module)
        if job.demand:
            counters[_I_DEMAND_LOADS] += 1
        else:
            counters[_I_PREFETCH_LOADS] += 1
            if job.unclaimed:
                region.unclaimed = job.module
        if job.demand or job.joined:
            self._complete(job.called_at, now, False)
        if job.demand and not region.queue:
            self._speculate(region, now, None, wake=False)
        self._pick(region, now)

    def _pick(self, region: _Region, now: int) -> None:
        """Consume queued jobs until one needs a load (or the queue drains)."""
        counters = self.counters
        while region.queue and region.job is None:
            job = region.queue.popleft()
            resident = self.multi and job.module in region.resident
            if job.cancelled or job.module == region.loaded or resident:
                if job.demand:
                    if region.unclaimed == job.module:
                        counters[_I_USEFUL] += 1
                        region.unclaimed = None
                    hit = job.module != region.loaded  # demands are never cancelled
                    if hit:
                        counters[_I_RESIDENT] += 1
                        self._activate(region, job.module)
                    self._complete(job.called_at, now, hit)
                    if not region.queue:
                        self._speculate(region, now, None, wake=False)
                continue
            self._start(region, job, now, wake=False)

    def _activate(self, region: _Region, module: str) -> None:
        region.loaded = module
        region.history.append(module)

    def _evict_overflow(self, region: _Region, keep: str) -> None:
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

#: ``replay(board_index, sink) -> (stats_dict, end_time_ns)``: one board on
#: the reference kernel, its telemetry into ``sink`` (or none)
Replay = Callable[[int, object], tuple[dict, int]]


class _Events:
    """One board's telemetry events, kept apart until the board succeeds."""

    def __init__(self):
        self.scalar_demands: list[tuple] = []
        self.scalar_port: list[tuple] = []


def _merge(recorder, index: int, events: Optional[_Events]) -> None:
    """Add a board's events to the recorder, labelling its port transfers."""
    if recorder is not None:
        recorder.scalar_demands.extend(events.scalar_demands)
        recorder.scalar_port.extend(events.scalar_port)
        recorder.scalar_port_boards.extend([index] * len(events.scalar_port))


def simulate_fast_fleet(
    config: "FleetConfig",
    schedules: ScheduleSet,
    arch: ReconfigArchitecture,
    recorder=None,
    replay: Optional[Replay] = None,
) -> tuple[list[dict], list[int], FastRunStats]:
    """Replay ``schedules`` under ``config``'s policy without the kernel.

    ``schedules`` is the fleet's array set, in ``config.region_map()``
    order: the cores step through its ``(boards, requests)`` arrays as they
    are, and the chronological loop decodes one board at a time.

    Returns per-board stats dicts (``ManagerStats.to_dict()`` form, in
    schedule order), per-board end times (the last event on each board),
    and the engine's execution stats.  Boards with an event tie go to
    ``replay`` (the fleet driver's kernel replay).

    ``recorder`` (a :class:`repro.runtime.fleet.FleetTelemetryRecorder`)
    collects windowed telemetry as per-step array references on the cores
    and per-event tuples on the chronological loop and kernel replays; all
    aggregation is deferred to the recorder's flush, so the simulated
    outcome is bit-identical with or without it.
    """
    bundle = get_bundle(config.policy)
    region_map = config.region_map()
    latency_ns = arch.request_latency_ns
    load_ns = _load_table(config, arch, region_map)
    mode = vector_mode(config.policy, config.region_slots)
    slots = config.region_slots if config.region_slots is not None else bundle.region_slots
    n_boards = len(schedules)
    module_lists = list(region_map.values())
    n_modules = max(len(modules) for modules in module_lists)
    load_arr = np.zeros((len(region_map), n_modules), dtype=np.int64)
    rank_arr = np.zeros((len(region_map), n_modules), dtype=np.int64)
    for r, (name, modules) in enumerate(region_map.items()):
        for i, module in enumerate(modules):
            load_arr[r, i] = load_ns[(name, module)]
            rank_arr[r, i] = sorted(modules).index(module)
    gaps, regs, mods = schedules.gaps, schedules.regions, schedules.modules
    loop = np.zeros(n_boards, dtype=bool)
    tied = np.zeros(n_boards, dtype=bool)
    if mode == "chrono" or not n_boards:
        counters = np.zeros((_N_COUNTERS, n_boards), dtype=np.int64)
        ends = np.zeros(n_boards, dtype=np.int64)
        loop[:] = True
    elif mode.startswith("onselect"):
        counters, ends = _vector_onselect(
            gaps, regs, mods, slots=slots, load_arr=load_arr, rank_arr=rank_arr,
            latency_ns=latency_ns, recorder=recorder,
        )
    elif mode == "speculate":
        # the predictors key their tables by module name, shared by regions
        assert all(modules == module_lists[0] for modules in module_lists)
        policy = bundle.prefetch_factory()
        predictor = _PREDICTORS[type(policy)](n_boards, rank_arr[0], policy.min_confidence)
        counters, ends, loop, tied = _vector_speculate(
            gaps, regs, mods, predictor=predictor, load_arr=load_arr,
            latency_ns=latency_ns, recorder=recorder,
        )
        loop &= ~tied
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
    rows = [ManagerStats.from_counters(row).to_dict() for row in counters.T]
    end_times = [int(e) for e in ends]
    for index in np.flatnonzero(loop).tolist():
        schedule = schedules[index]
        future = future_from_schedule(schedule) if bundle.needs_future else None
        runtime_policy = create_policy(
            config.policy, future=future, region_slots=config.region_slots
        )
        events = _Events() if recorder is not None else None
        board = _ChronoBoard(runtime_policy, region_map, latency_ns, load_ns, sink=events)
        outcome = board.run(schedule)
        if outcome is None:
            tied[index] = True
            continue
        rows[index] = ManagerStats.from_counters(outcome[0]).to_dict()
        end_times[index] = outcome[1]
        _merge(recorder, index, events)
    for index in np.flatnonzero(tied).tolist():
        if replay is None:
            raise ValueError(f"board {index} needs a kernel replay; pass replay=")
        events = _Events() if recorder is not None else None
        rows[index], end_times[index] = replay(index, events)
        _merge(recorder, index, events)
    if recorder is not None:
        # these boards' events came per event; drop their step arrays
        recorder.skip_boards = loop | tied
    stats = FastRunStats(
        mode=f"vector:{mode}",
        vector_boards=n_boards - int(tied.sum()),
        scalar_boards=int(tied.sum()),
        vector_steps=0 if mode == "chrono" else int(gaps.shape[1]),
        loop_boards=int((loop & ~tied).sum()),
    )
    return rows, end_times, stats
