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
end of the board's previously started job.  A landing changes only its own
region, so it can be applied lazily when that region is next touched; the
one job a landing can start (a queued speculation) is started before any
later job start on the board.  Only coincidences with the driver's request
instant need event order; the one that matters on generated traffic has an
exact rule (see :func:`_vector_speculate`), and the rest — a transfer end
on the request instant, or a zero gap — send that board to the kernel.

:func:`vector_mode` picks a core per policy bundle and ``region_slots``:

- ``noprefetch-*`` (``none``/``lru``/``lfu``/``belady``): demands never
  overlap loads, so a step is hit / resident hit / miss with
  ``stall = latency + transfer`` on a miss, plus masked insert/evict
  updates on the resident area whose victim metric is LRU recency, LFU
  frequency, FIFO insertion order or Belady's next use (one reverse scan
  over the module matrix).
- ``onselect`` / ``onselect-fifo`` (``fixed``/``on_select``): the select
  announcement at the previous completion starts a load that the demand a
  gap later joins or finds landed; multi-slot areas add the resident block.
- ``speculate`` / ``speculate-fifo`` (``history``/``confidence``/
  ``markov``): the predictors' count tables are ``(board, module, module)``
  tensors, and a step is hit, join of the in-flight speculation, idle miss,
  or "behind a speculation" (it lands, then the demand completes, switches
  context or reloads); a region holds one flight plus one queued
  speculation.

Every multi-slot core keeps its areas in one :class:`_Area`.  A bundle no
core recognises (a subclassed policy, a prefetcher with an eviction rule)
is ``kernel``: every board replays on the kernel.

The kernel (:mod:`repro.runtime.fleet`'s ``engine="kernel"``) stays the one
reference: ``tests/runtime/test_fast.py`` pins every core's per-board
counters, end times and telemetry to it, and tie boards replay on it.
Counter rows use the :data:`~repro.reconfig.manager.COUNTER_FIELDS` layout
and are rebuilt through :meth:`ManagerStats.from_counters`, so the array
form and the manager's dataclass can never disagree on field order.

Preconditions (all guaranteed by the fleet driver): size-only bitstream
registration (CRC always verifies), no readback verification, no upset
injection — the failure/retry counters stay zero on both paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.reconfig.architectures import ReconfigArchitecture
from repro.reconfig.manager import COUNTER_FIELDS, ManagerStats
from repro.reconfig.prefetch import (
    HistoryPrefetchPolicy,
    MarkovPrefetchPolicy,
    NoPrefetchPolicy,
    OnSelectPrefetchPolicy,
)
from repro.runtime.policies import get_bundle
from repro.runtime.traffic import ScheduleSet
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
#: a time no event reaches
_NEVER = np.iinfo(np.int64).max


@dataclass
class FastRunStats:
    """How the fast engine executed one fleet (the regression-guard hooks)."""

    #: ``vector:<core>``, the core :func:`vector_mode` picked
    mode: str
    #: boards whose outcome the array engine computed
    vector_boards: int
    #: boards replayed on the kernel (an event tie, a queue too deep for
    #: the arrays, or a bundle no core recognises)
    scalar_boards: int
    #: per-step vector updates executed (== requests_per_board)
    vector_steps: int

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "vector_boards": self.vector_boards,
            "scalar_boards": self.scalar_boards,
            "vector_steps": self.vector_steps,
        }


def vector_mode(policy: str, region_slots: Optional[int] = None) -> str:
    """The core handling ``policy`` at ``region_slots``.

    The class checks are exact (``type is``): a subclassed policy may
    override behaviour the closed forms assume, so anything unrecognised is
    ``kernel`` — every board replays on the reference kernel.
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
    if prefetch_type in _PREDICTORS and eviction is None:
        return "speculate-fifo" if multi else "speculate"
    return "kernel"


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


class _Area:
    """Every ``(board, region)`` cell's shared area at ``region_slots`` > 1.

    Flat layout: cell ``board * regions + region``, entry ``cell * modules
    + module``.  Every region starts with its first module resident.
    ``metric`` ranks eviction victims; it starts as the FIFO insertion
    stamp of a per-board ``clock`` that ticks once per preload in
    region-map order, and the no-prefetch core may swap in LRU recency, LFU
    frequency or Belady's next use.
    """

    def __init__(self, n_boards: int, rank_arr: np.ndarray, slots: int):
        n_regions, n_modules = rank_arr.shape
        cells = n_boards * n_regions
        self.slots = slots
        self.n_regions, self.n_modules = n_regions, n_modules
        self.rank = rank_arr
        self.resident = np.zeros((cells, n_modules), dtype=bool)
        self.resident[:, 0] = True
        self.count = np.ones(cells, dtype=np.int64)
        self.clock = np.full(n_boards, n_regions, dtype=np.int64)
        self.metric = np.zeros((cells, n_modules), dtype=np.int64)
        self.metric[:, 0] = np.tile(np.arange(1, n_regions + 1), n_boards)
        #: flat views, indexed by entry
        self.held = self.resident.reshape(-1)
        self.key = self.metric.reshape(-1)

    def insert(self, cell, entry, mask, counters, stamp: bool = True, largest: bool = False):
        """Configure ``entry`` where ``mask`` (never already resident), then
        evict one victim from each overflowing cell.

        ``stamp`` gives the insert its FIFO stamp.  The victim is the masked
        argmin of ``metric * (M+1) + name_rank`` (``largest``: argmax) over
        the cell's other residents, reproducing the policies' ``min``/``max``
        over ``(metric, name)`` keys.  Returns the overflowing cells and
        their victims, or None.
        """
        self.held[entry] |= mask
        self.count[cell] += mask
        if stamp:
            self.clock += mask
            self.key[entry] = np.where(mask, self.clock, self.key[entry])
        over = mask & (self.count[cell] > self.slots)
        if not over.any():
            return None
        cells = cell[over]
        candidates = self.resident[cells]
        candidates[np.arange(len(cells)), entry[over] - cells * self.n_modules] = False
        key = self.metric[cells] * (self.n_modules + 1) + self.rank[cells % self.n_regions]
        if largest:
            key = -key
        victim = np.where(candidates, key, _NEVER).argmin(axis=1)
        self.resident[cells, victim] = False
        self.count[cells] -= 1
        counters[_I_EVICTIONS, cells // self.n_regions] += 1
        return cells, victim


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
    area; :meth:`_Area.insert` picks the victim with LRU recency, LFU
    frequency, FIFO insertion order or Belady's next use as the metric.
    """
    n_boards, steps = gaps.shape
    n_regions, n_modules = load_arr.shape
    counters = np.zeros((_N_COUNTERS, n_boards), dtype=np.int64)
    t = np.zeros(n_boards, dtype=np.int64)
    # preload: every region ships its first module (index 0) at power-up
    loaded = np.zeros(n_boards * n_regions, dtype=np.int64)
    row = np.arange(n_boards) * n_regions
    multi = slots > 1
    if multi:
        # LRU's clock ticks once per preload in region-map order, exactly
        # like FIFO's insertion stamps
        area = _Area(n_boards, rank_arr, slots)
        if eviction == "lfu":
            area.key[:] = 0
        elif eviction == "belady":
            after, first = _next_uses(regs, mods, n_regions, n_modules)
            area.key[:] = first.reshape(-1)
    if recorder is not None:
        recorder.mode = "noprefetch"
        recorder.port_offset_ns = latency_ns
    for step in range(steps):
        gap = gaps[:, step]
        region = regs[:, step]
        module = mods[:, step]
        cell = row + region
        t_req = t + gap
        counters[_I_DEMAND_REQUESTS] += 1
        hit = loaded[cell] == module
        if multi:
            entry = cell * n_modules + module
            if eviction == "lru":
                area.clock += 1
                area.key[entry] = area.clock
            elif eviction == "lfu":
                area.key[entry] += 1
            elif eviction == "belady":
                area.key[entry] = after[:, step]
            res_hit = area.held[entry] & ~hit
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
        loaded[cell] = module
        if multi:
            evicted = area.insert(
                cell, entry, miss, counters,
                stamp=eviction is None, largest=eviction == "belady",
            )
            if evicted is not None and eviction == "lru":
                # LRU forgets evicted recency (get(..., 0) after pop)
                area.metric[evicted] = 0
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
    loaded = np.zeros(n_boards * n_regions, dtype=np.int64)
    row = np.arange(n_boards) * n_regions
    multi = slots > 1
    if multi:
        area = _Area(n_boards, rank_arr, slots)
    if recorder is not None:
        recorder.mode = "onselect"
        recorder.port_offset_ns = 0  # recorded loads are pure transfers
    for step in range(steps):
        gap = gaps[:, step]
        region = regs[:, step]
        module = mods[:, step]
        cell = row + region
        t_req = t + gap
        counters[_I_DEMAND_REQUESTS] += 1
        same = loaded[cell] == module
        if multi:
            entry = cell * n_modules + module
            res_hit = area.held[entry] & ~same
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
        loaded[cell] = module
        if multi:
            area.insert(cell, entry, fetch, counters)
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
    slots: int,
    load_arr: np.ndarray,
    rank_arr: np.ndarray,
    latency_ns: int,
    recorder=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """history / confidence / markov at any ``region_slots``: idle-time
    speculation.

    After each demand completes, its region speculates on the predicted
    successor (unless it is active or resident): a load starting at the
    completion.  A region holds one such flight, applied when the region
    is next touched.  While the flight is in its request latency the
    manager sees no load in progress.  A demand for ``m`` at ``t_req`` is
    then one of:

    - **hit**: no load in progress and ``m`` active (instant hit) or
      resident (multi-slot context switch); speculate now;
    - **join**: the flight carries ``m`` and its latency is over; complete
      at its landing, with no speculation after;
    - **idle miss**: a demand load starting at ``t_req``;
    - **behind a speculation**: the flight lands (a multi-slot landing
      evicts FIFO), then the demand completes (``m`` is the flight's
      module), switches to ``m`` if it is still resident, or loads from
      the landing time.

    **Queued speculation.**  A hit inside a flight's latency queues its
    speculation behind the flight; it may name the flight's own module, a
    no-op when picked.  It starts at the landing and takes the port in
    start order, so it starts, in landing order, before any later job
    start on the board.  A join hands the port to it; a demand behind the
    flight cancels it, except that one for the queued module (not the
    flight's) would need a deeper queue.  An unclaimed speculation that is
    overwritten (one slot) or evicted is wasted.

    **Latency-end tie** (``t_req == start + L`` in the demanded region):
    the latency end fires first, so the demand sees the flight loading,
    unless the flight started after the driver resumed, or at that instant
    through a wake (a speculation after a hit into an idle region); then
    the demand comes first and still sees it in its latency.

    Returns counters, end times and ``tied``: the boards that must replay
    on the kernel — a transfer end fell on a request instant, a gap was
    zero, or a region needed a deeper queue.
    """
    n_boards, steps = gaps.shape
    n_regions, n_modules = load_arr.shape
    latency = latency_ns
    multi = slots > 1
    area = _Area(n_boards, rank_arr, slots) if multi else None
    counters = np.zeros((_N_COUNTERS, n_boards), dtype=np.int64)
    bi = np.arange(n_boards)
    row = bi * n_regions
    t = np.zeros(n_boards, dtype=np.int64)
    port_free = np.zeros(n_boards, dtype=np.int64)
    # per-(board, region) state, flattened: cell = board * regions + region
    cells = n_boards * n_regions
    loaded = np.zeros(cells, dtype=np.int64)
    #: the landed speculation no demand has claimed yet (-1: none)
    unclaimed = np.full(cells, -1, dtype=np.int64)
    last_demand = np.full(cells, -1, dtype=np.int64)
    #: the region's speculation in flight: module (-1: none), start, end
    #: (-1: none, so no request instant can equal it), and whether it
    #: started through a wake; its landing is not yet applied
    flight = np.full(cells, -1, dtype=np.int64)
    flight_start = np.zeros(cells, dtype=np.int64)
    flight_end = np.full(cells, -1, dtype=np.int64)
    flight_wake = np.zeros(cells, dtype=bool)
    region_ends = [flight_end[r::n_regions] for r in range(n_regions)]
    #: the speculation queued behind the flight (-1: none), and per board
    #: a lower bound on the earliest landing with one behind it
    queued = np.full(cells, -1, dtype=np.int64)
    queue_at = np.full(n_boards, _NEVER, dtype=np.int64)
    tied = np.zeros(n_boards, dtype=bool)
    if recorder is not None:
        recorder.mode = "speculate"
        recorder.port_offset_ns = 0

    def land(mask, cell, module, claimed):
        """Apply the landing of ``module`` in ``cell`` where ``mask``;
        ``claimed`` (a demand load, a joined flight) leaves it unmarked."""
        if multi:
            # a masked-out -1 must still index its own cell's row
            entry = cell * n_modules + np.maximum(module, 0)
            evicted = area.insert(cell, entry, mask, counters)
            if evicted is not None:
                over, victim = evicted
                lost = unclaimed[over] == victim
                counters[_I_WASTED, over // n_regions] += lost
                unclaimed[over] = np.where(lost, -1, unclaimed[over])
            kept = unclaimed[cell]
        else:
            counters[_I_WASTED] += mask & (unclaimed[cell] >= 0)
            kept = -1
        loaded[cell] = np.where(mask, module, loaded[cell])
        unclaimed[cell] = np.where(mask, np.where(claimed, kept, module), unclaimed[cell])

    def start_queued(limit):
        """Start every queued speculation whose flight lands before
        ``limit``, in landing order."""
        while True:
            ready = queue_at < limit
            if not ready.any():
                return
            waiting = np.where(queued >= 0, flight_end, _NEVER).reshape(n_boards, n_regions)
            region = waiting.argmin(axis=1)
            cell = row + region
            end = flight_end[cell]
            target = queued[cell]
            go = ready & (target >= 0) & (end < limit)
            spec = flight[cell]
            land(go, cell, spec, False)
            start = go & (target != spec)
            load = load_arr[region, np.maximum(target, 0)]
            spec_end = np.maximum(end + latency, port_free) + load
            np.copyto(port_free, spec_end, where=start)
            counters[_I_PREFETCH_LOADS] += start
            flight[cell] = np.where(go, np.where(start, target, -1), spec)
            flight_start[cell] = np.where(start, end, flight_start[cell])
            flight_end[cell] = np.where(go, np.where(start, spec_end, -1), end)
            flight_wake[cell] &= ~go
            queued[cell] = np.where(go, -1, target)
            waiting = np.where(queued >= 0, flight_end, _NEVER)
            queue_at[:] = waiting.reshape(n_boards, n_regions).min(axis=1)
            if recorder is not None:
                recorder.record_port(start, spec_end, load)

    for step in range(steps):
        gap = gaps[:, step]
        region = regs[:, step]
        module = mods[:, step]
        cell = row + region
        t_prev = t
        t_req = t + gap
        start_queued(t_req)
        tied |= gap == 0
        for ends in region_ends:
            tied |= ends == t_req
        spec = flight[cell]
        start = flight_start[cell]
        end = flight_end[cell]
        landed = (spec >= 0) & (end < t_req)
        if multi:
            land(landed, cell, spec, False)
            current, uncl = loaded[cell], unclaimed[cell]
        else:
            # one slot applies landings in closed form: see the waste below
            chained = unclaimed[cell] >= 0
            current = np.where(landed, spec, loaded[cell])
            uncl = np.where(landed, spec, unclaimed[cell])
        active = (spec >= 0) & ~landed
        lat_end = start + latency
        loading = active & (
            (t_req > lat_end)
            | ((t_req == lat_end) & ((start < t_prev) | ((start == t_prev) & ~flight_wake[cell])))
        )
        same = current == module
        if multi:
            entry = cell * n_modules + module
            fits = area.held[entry]
        else:
            fits = same
        hit = ~loading & fits
        join = loading & (spec == module)
        behind = active & ~(hit | join)
        idle_miss = ~active & ~fits
        queue = queued[cell]
        # a demand behind the flight cancels a queued speculation for
        # another module; one for its own module needs a queue two jobs
        # deep, unless the speculation names the flight's module (a no-op)
        tied |= behind & (queue == module) & (queue != spec)
        queued[cell] = np.where(behind, -1, queue)
        # the demand: observe first, predictions below see this transition
        prev = last_demand[cell]
        last_demand[cell] = module
        predictor.observe(prev, module)
        counters[_I_DEMAND_REQUESTS] += 1
        claim = hit & (uncl == module)
        follow = behind & (spec == module)
        if multi:
            # a join claims the flight before it lands; a demand behind it waits
            unclaimed[cell] = np.where(join, -1, uncl)
            land(join | behind, cell, spec, join)
            switch = behind & ~follow & area.held[entry]
            counters[_I_RESIDENT] += (hit & ~same) | switch
        else:
            switch = False
        reload = idle_miss | (behind & ~(follow | switch))
        load_start = np.where(idle_miss, t_req, end)
        start_queued(np.where(reload, load_start, t_req))
        load = load_arr[region, module]
        load_end = np.maximum(load_start + latency, port_free) + load
        np.copyto(port_free, load_end, where=reload)
        if multi:
            land(reload, cell, module, True)
            unclaimed[cell] = np.where(claim | follow, -1, unclaimed[cell])
        else:
            # every one-slot landing overwrites the active module, wasting
            # it while unclaimed: a chained speculation's predecessor (under
            # a landed flight or the one a demand waits behind), the idle
            # module under a demand load, the flight under a reload
            counters[_I_WASTED] += (landed | behind) & chained
            counters[_I_WASTED] += (idle_miss & (uncl >= 0)) | (reload & behind)
            unclaimed[cell] = -1
        done = np.where(reload, load_end, np.where(hit, t_req, end))
        stall = done - t_req
        counters[_I_INSTANT] += hit & same
        counters[_I_USEFUL] += claim | join | follow
        counters[_I_DEMAND_LOADS] += reload
        counters[_I_STALL] += stall
        loaded[cell] = module
        # speculation at the completion; a hit inside the flight's latency
        # keeps the flight and queues it, a join resumes the queued one
        target = predictor.predict(module)
        want = (target >= 0) & (target != module)
        if multi:
            want &= ~area.held[cell * n_modules + np.maximum(target, 0)]
        kept = hit & active
        resume = join & (queue >= 0) & (queue != module)
        go = (want & ~(join | kept)) | resume
        new_queue = want & kept & (queue < 0)
        start_queued(done)
        nxt = np.where(join, queue, target)
        spec_load = load_arr[region, np.maximum(nxt, 0)]
        spec_end = np.maximum(done + latency, port_free) + spec_load
        np.copyto(port_free, spec_end, where=go)
        counters[_I_PREFETCH_LOADS] += go
        flight[cell] = np.where(go, nxt, np.where(kept, spec, -1))
        flight_start[cell] = np.where(go, done, start)
        flight_end[cell] = np.where(go, spec_end, np.where(kept, end, -1))
        # a kept flight started before t_req, so its wake flag is moot
        flight_wake[cell] = hit & ~active
        queued[cell] = np.where(new_queue, target, np.where(kept, queue, -1))
        np.minimum(queue_at, np.where(new_queue, end, _NEVER), out=queue_at)
        if recorder is not None:
            recorder.record_step(
                t_req, stall, hit | switch, reload, load_end, load, go, spec_end, spec_load
            )
        t = done
    # every flight lands, and every queued speculation behind one starts
    start_queued(_NEVER)
    for r in range(n_regions):
        spec = flight[row + r]
        land(spec >= 0, row + r, spec, False)
    return counters, np.maximum(t, port_free), tied


# ---------------------------------------------------------------------------
# fleet-level entry point
# ---------------------------------------------------------------------------

#: ``replay(board_index, sink) -> (stats_dict, end_time_ns)``: one board on
#: the reference kernel, its telemetry into ``sink`` (or none)
Replay = Callable[[int, object], tuple[dict, int]]


class _Events:
    """One board's telemetry events from its kernel replay."""

    def __init__(self):
        self.scalar_demands: list[tuple] = []
        self.scalar_port: list[tuple] = []


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
    are.

    Returns per-board stats dicts (``ManagerStats.to_dict()`` form, in
    schedule order), per-board end times (the last event on each board),
    and the engine's execution stats.  Boards the core marks tied — and
    every board of a ``kernel`` bundle — go to ``replay`` (the fleet
    driver's kernel replay).

    ``recorder`` (a :class:`repro.runtime.fleet.FleetTelemetryRecorder`)
    collects windowed telemetry as per-step array references on the cores
    and per-event tuples on kernel replays; all aggregation is deferred to
    the recorder's flush, so the simulated outcome is bit-identical with or
    without it.
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
    tied = np.zeros(n_boards, dtype=bool)
    if mode == "kernel" or not n_boards:
        counters = np.zeros((_N_COUNTERS, n_boards), dtype=np.int64)
        ends = np.zeros(n_boards, dtype=np.int64)
        tied[:] = True
    elif mode.startswith("onselect"):
        counters, ends = _vector_onselect(
            gaps, regs, mods, slots=slots, load_arr=load_arr, rank_arr=rank_arr,
            latency_ns=latency_ns, recorder=recorder,
        )
    elif mode.startswith("speculate"):
        # the predictors key their tables by module name, shared by regions
        assert all(modules == module_lists[0] for modules in module_lists)
        policy = bundle.prefetch_factory()
        predictor = _PREDICTORS[type(policy)](n_boards, rank_arr[0], policy.min_confidence)
        counters, ends, tied = _vector_speculate(
            gaps, regs, mods, predictor=predictor, slots=slots, load_arr=load_arr,
            rank_arr=rank_arr, latency_ns=latency_ns, recorder=recorder,
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
    rows = [ManagerStats.from_counters(row).to_dict() for row in counters.T]
    end_times = [int(e) for e in ends]
    for index in np.flatnonzero(tied).tolist():
        if replay is None:
            raise ValueError(f"board {index} needs a kernel replay; pass replay=")
        events = _Events() if recorder is not None else None
        rows[index], end_times[index] = replay(index, events)
        if recorder is not None:
            recorder.scalar_demands.extend(events.scalar_demands)
            recorder.scalar_port.extend(events.scalar_port)
            recorder.scalar_port_boards.extend([index] * len(events.scalar_port))
    if recorder is not None:
        # these boards' events came per event; drop their step arrays
        recorder.skip_boards = tied
    stats = FastRunStats(
        mode=f"vector:{mode}",
        vector_boards=n_boards - int(tied.sum()),
        scalar_boards=int(tied.sum()),
        vector_steps=0 if mode == "kernel" else int(gaps.shape[1]),
    )
    return rows, end_times, stats
