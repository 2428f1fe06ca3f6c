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
  ``stall = latency + transfer`` on a miss; a multi-slot miss inserts its
  module into the area, whose lanes keep FIFO insertion order or LRU
  recency, or are ranked by LFU frequency or Belady's next use (one
  reverse scan over the schedule).
- ``onselect`` / ``onselect-fifo`` (``fixed``/``on_select``): the select
  announcement at the previous completion starts a load that the demand a
  gap later joins or finds landed; multi-slot areas add FIFO lanes.
- ``speculate`` / ``speculate-fifo`` (``history``/``confidence``/
  ``markov``): the predictors' count tables are ``(board, module, module)``
  tensors, and a step is hit, join of the in-flight speculation, idle miss,
  or "behind a speculation" (it lands, then the demand completes, switches
  context or reloads); a region holds one flight plus one queued
  speculation.

Every multi-slot core keeps its areas in one :class:`_Area`: ``slots``
lanes per ``(board, region)`` cell, each holding a module or nothing, so
a residency test or a victim search reads ``slots`` flat arrays, however
many modules a region has.  Counters every step would add to in the same
way (requests, evictions, the on-select hit split) are derived once after
the last step.  A bundle no core recognises (a subclassed policy, a
prefetcher with an eviction rule) is ``kernel``: every board replays on
the kernel.

The kernel (:mod:`repro.runtime.fleet`'s ``engine="kernel"``) stays the one
reference: ``tests/runtime/test_fast.py`` pins every core's per-board
counters, end times and telemetry to it, and tie boards replay on it.
Counter rows use the :data:`~repro.reconfig.manager.COUNTER_FIELDS` layout,
the manager dataclass's field order, and become per-board dicts in one
bulk pass.

Preconditions (all guaranteed by the fleet driver): size-only bitstream
registration (CRC always verifies), no readback verification, no upset
injection — the failure/retry counters stay zero on both paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.reconfig.architectures import ReconfigArchitecture
from repro.reconfig.manager import COUNTER_FIELDS
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
#: the score of an empty lane, below every entry's
_LOWEST = np.iinfo(np.int64).min


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

    A cell (``board * regions + region``) has ``slots`` lanes, each holding
    a module index or -1 (empty).  ``lanes[j]`` is lane ``j`` of every
    cell, so reading a lane is one flat gather.  Every region starts with
    its first module in lane 0 and the other lanes empty.  The eviction
    rule orders the lanes:

    - FIFO (no eviction policy) and LRU: newest or most recently demanded
      first.  An insert puts its module in lane 0 and shifts every lane
      one back, so the last lane falls out: the victim, unless it was
      empty.  An LRU demand moves its module to lane 0 the same way,
      shifting only the lanes in front of it.
    - LFU and Belady: lanes keep their place, and a miss replaces the
      lane with the lowest ``score``, one composite key per entry:
      frequency times ``M + 1`` plus the module's name rank (LFU), or
      minus (next use times ``M + 1`` plus the name rank) (Belady), so the
      lowest score is the policies' ``min``/``max`` over ``(metric,
      name)``.  Column 0 of each cell scores an empty lane, lowest of all.
    """

    def __init__(
        self,
        n_boards: int,
        rank_arr: np.ndarray,
        slots: int,
        eviction: Optional[str] = None,
        first_scores: Optional[np.ndarray] = None,
    ):
        n_regions, n_modules = rank_arr.shape
        cells = n_boards * n_regions
        self.n_regions = n_regions
        self.lanes = np.full((slots, cells), -1, dtype=np.int64)
        self.lanes[0] = 0
        self.ranked = eviction in ("lfu", "belady")
        if self.ranked:
            self.stride = n_modules + 1
            score = np.full((n_boards, n_regions, self.stride), _LOWEST, dtype=np.int64)
            # LFU entries start at frequency 0, Belady's at their first use
            score[..., 1:] = rank_arr if first_scores is None else first_scores
            self.score = score.reshape(-1)

    def resident(self, cell: np.ndarray, module: np.ndarray) -> np.ndarray:
        """Whether ``module`` holds a lane of ``cell``."""
        lanes = iter(self.lanes)
        found = next(lanes)[cell] == module
        for lane in lanes:
            found |= lane[cell] == module
        return found

    def touch(self, cell: np.ndarray, module: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """An LRU demand: move ``module`` to lane 0, inserting it if absent.

        Returns the hit mask (``module`` was in lane 0, the active module
        of a no-prefetch area) and the miss mask (it was not resident).
        """
        lanes = iter(self.lanes)
        lane = next(lanes)
        prev = lane[cell]
        lane[cell] = module
        hit = prev == module
        miss = ~hit
        for lane in lanes:
            held = lane[cell]
            lane[cell] = np.where(miss, prev, held)
            miss &= held != module
            prev = held
        return hit, miss

    def insert(self, cell, module, mask) -> np.ndarray:
        """FIFO: configure ``module`` (never already resident) where ``mask``.

        Returns each board's victim (-1: none).
        """
        prev = module
        for lane in self.lanes:
            held = lane[cell]
            lane[cell] = np.where(mask, prev, held)
            prev = held
        return np.where(mask, prev, -1)

    def rank(self, cell, module, score: Optional[np.ndarray] = None) -> np.ndarray:
        """An LFU (``score`` None: one more use) or Belady demand.

        Rescores ``module``, then configures it where it is not resident,
        in the lane with the lowest score.  Returns the miss mask.
        """
        base = cell * self.stride + 1
        if score is None:
            self.score[base + module] += self.stride
        else:
            self.score[base + module] = score
        lanes = iter(self.lanes)
        held = next(lanes)[cell]
        resident = held == module
        low, pick, victim = self.score[base + held], 0, held
        for j, lane in enumerate(lanes, 1):
            held = lane[cell]
            resident |= held == module
            key = self.score[base + held]
            lower = key < low
            low = np.minimum(low, key)
            pick = np.where(lower, j, pick)
            victim = np.where(lower, held, victim)
        miss = ~resident
        slot = pick * self.lanes.shape[1] + cell
        self.lanes.reshape(-1)[slot] = np.where(miss, module, victim)
        return miss

    def evictions(self, inserts: np.ndarray) -> np.ndarray:
        """Per board, how many of its ``inserts`` evicted a module: each
        one either filled an empty lane or pushed a module out."""
        filled = (self.lanes >= 0).reshape(len(self.lanes), len(inserts), -1).sum(axis=(0, 2))
        return inserts - (filled - self.n_regions)


# ---------------------------------------------------------------------------
# vectorized cores
# ---------------------------------------------------------------------------


def _next_uses(regs: np.ndarray, mods: np.ndarray, rank_arr: np.ndarray):
    """Belady's scores, by one reverse scan over the schedule arrays.

    Returns ``(after, first)``: ``after[b, s]`` scores the next step of
    board ``b`` demanding step ``s``'s ``(region, module)`` again, and
    ``first[b, r, m]`` the first step demanding ``(r, m)``.  A module never
    demanded again reads ``steps``, beyond every real use.  A step scores
    as :class:`_Area` ranks Belady's entries: minus (step times ``M + 1``
    plus the module's name rank).
    """
    n_boards, steps = regs.shape
    n_regions, n_modules = rank_arr.shape
    stride = n_modules + 1
    rank = rank_arr.reshape(-1)
    base = np.arange(n_boards) * rank.size
    after = np.empty((n_boards, steps), dtype=np.int64, order="F")
    seen = np.tile(-(steps * stride + rank), n_boards)
    for step in range(steps - 1, -1, -1):
        entry = regs[:, step] * n_modules + mods[:, step]
        slot = base + entry
        after[:, step] = seen[slot]
        seen[slot] = -step * stride - rank[entry]
    return after, seen.reshape(n_boards, n_regions, n_modules)


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
    load of ``latency + transfer``.  A multi-slot miss inserts its module
    into the area: :meth:`_Area.touch` keeps LRU lanes in recency order,
    :meth:`_Area.insert` FIFO lanes in insertion order, and
    :meth:`_Area.rank` evicts by LFU frequency or Belady's next use (one
    reverse scan over the schedule).
    """
    n_boards, steps = gaps.shape
    n_regions, n_modules = load_arr.shape
    counters = np.zeros((_N_COUNTERS, n_boards), dtype=np.int64)
    t = np.zeros(n_boards, dtype=np.int64)
    # preload: every region ships its first module (index 0) at power-up
    loaded = np.zeros(n_boards * n_regions, dtype=np.int64)
    row = np.arange(n_boards) * n_regions
    multi = slots > 1
    first_scores = None
    if multi and eviction == "belady":
        next_scores, first_scores = _next_uses(regs, mods, rank_arr)
    area = _Area(n_boards, rank_arr, slots, eviction, first_scores) if multi else None
    # a miss's stall, latency plus transfer, by flat (region, module) entry
    durations = (latency_ns + load_arr).reshape(-1)
    if recorder is not None:
        (misses,) = recorder.begin("noprefetch", gaps, regs, mods, load_arr, latency_ns)
    lru = multi and eviction == "lru"
    for step in range(steps):
        gap = gaps[:, step]
        region = regs[:, step]
        module = mods[:, step]
        cell = row + region
        t_req = t + gap
        if lru:
            # lane 0 holds the active module
            hit, miss = area.touch(cell, module)
        else:
            hit = loaded[cell] == module
            loaded[cell] = module
            if not multi:
                miss = ~hit
            elif area.ranked:
                miss = area.rank(cell, module, None if first_scores is None else next_scores[:, step])
            else:
                miss = ~area.resident(cell, module)
                area.insert(cell, module, miss)
        stall = np.where(miss, durations[region * n_modules + module], 0)
        counters[_I_INSTANT] += hit
        counters[_I_DEMAND_LOADS] += miss
        counters[_I_STALL] += stall
        if recorder is not None:
            # request times, stalls and transfers follow from the misses
            misses[step] = miss
        t = t_req + stall
    # every demand is an instant hit, a resident hit or a load
    counters[_I_DEMAND_REQUESTS] = steps
    counters[_I_RESIDENT] = steps - counters[_I_INSTANT] - counters[_I_DEMAND_LOADS]
    if multi:
        counters[_I_EVICTIONS] = area.evictions(counters[_I_DEMAND_LOADS])
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
    # latency plus transfer, by flat (region, module) entry
    durations = (latency_ns + load_arr).reshape(-1)
    counters = np.zeros((_N_COUNTERS, n_boards), dtype=np.int64)
    t = np.zeros(n_boards, dtype=np.int64)
    loaded = np.zeros(n_boards * n_regions, dtype=np.int64)
    row = np.arange(n_boards) * n_regions
    multi = slots > 1
    if multi:
        area = _Area(n_boards, rank_arr, slots)
    if recorder is not None:
        earlies, fetches = recorder.begin("onselect", gaps, regs, mods, load_arr, latency_ns)
    # per board: demands for the active module, and fetches a demand
    # queued behind
    actives = np.zeros(n_boards, dtype=np.int64)
    queued = np.zeros(n_boards, dtype=np.int64)
    for step in range(steps):
        gap = gaps[:, step]
        region = regs[:, step]
        module = mods[:, step]
        cell = row + region
        t_req = t + gap
        same = loaded[cell] == module
        fetch = ~area.resident(cell, module) if multi else ~same
        spec_end = t + durations[region * n_modules + module]
        early = fetch & (t_req <= spec_end)
        actives += same
        counters[_I_PREFETCH_LOADS] += fetch
        queued += early
        stall = np.where(early, spec_end - t_req, 0)
        counters[_I_STALL] += stall
        if recorder is not None:
            earlies[step] = early
            fetches[step] = fetch
        t = t_req + stall
        loaded[cell] = module
        if multi:
            area.insert(cell, module, fetch)
    # a demand finds its module active, resident or fetched; a fetch is an
    # instant hit unless the demand queued behind it
    fetched = counters[_I_PREFETCH_LOADS]
    counters[_I_DEMAND_REQUESTS] = steps
    counters[_I_INSTANT] = actives + fetched - queued
    counters[_I_RESIDENT] = steps - actives - fetched
    counters[_I_USEFUL] = fetched
    if multi:
        counters[_I_EVICTIONS] = area.evictions(fetched)
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
    loads = load_arr.reshape(-1)
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
        columns = recorder.begin("speculate", gaps, regs, mods, load_arr, latency_ns)

    def land(mask, cell, module, claimed):
        """Apply the landing of ``module`` in ``cell`` where ``mask``;
        ``claimed`` (a demand load, a joined flight) leaves it unmarked."""
        kept = unclaimed[cell]
        if multi:
            victim = area.insert(cell, module, mask)
            lost = (kept == victim) & (victim >= 0)
            counters[_I_WASTED] += lost
            kept = np.where(lost, -1, kept)
            unclaimed[cell] = np.where(mask, np.where(claimed, kept, module), kept)
        else:
            counters[_I_WASTED] += mask & (kept >= 0)
            unclaimed[cell] = np.where(mask, np.where(claimed, -1, module), kept)
        loaded[cell] = np.where(mask, module, loaded[cell])

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
            load = loads[region * n_modules + np.maximum(target, 0)]
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
        fits = area.resident(cell, module) if multi else same
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
        claim = hit & (uncl == module)
        follow = behind & (spec == module)
        if multi:
            # a join claims the flight before it lands; a demand behind it waits
            unclaimed[cell] = np.where(join, -1, uncl)
            land(join | behind, cell, spec, join)
            switch = behind & ~follow & area.resident(cell, module)
            counters[_I_RESIDENT] += (hit & ~same) | switch
        else:
            switch = False
        reload = idle_miss | (behind & ~(follow | switch))
        load_start = np.where(idle_miss, t_req, end)
        start_queued(np.where(reload, load_start, t_req))
        base = region * n_modules
        load = loads[base + module]
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
            want &= ~area.resident(cell, target)
        kept = hit & active
        resume = join & (queue >= 0) & (queue != module)
        go = (want & ~(join | kept)) | resume
        new_queue = want & kept & (queue < 0)
        start_queued(done)
        nxt = np.where(join, queue, target)
        spec_load = loads[base + np.maximum(nxt, 0)]
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
            for column, value in zip(
                columns, (stall, hit | switch, reload, load_end, go, spec_end, spec_load)
            ):
                column[step] = value
        t = done
    # every flight lands, and every queued speculation behind one starts
    start_queued(_NEVER)
    for r in range(n_regions):
        spec = flight[row + r]
        land(spec >= 0, row + r, spec, False)
    counters[_I_DEMAND_REQUESTS] = steps
    if multi:
        # every load, demand or speculative, has landed in the area
        counters[_I_EVICTIONS] = area.evictions(
            counters[_I_DEMAND_LOADS] + counters[_I_PREFETCH_LOADS]
        )
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

    Returns per-board stats dicts (``ManagerStats.to_dict()`` form, keyed
    by :data:`~repro.reconfig.manager.COUNTER_FIELDS` in that order and
    built from the counter matrix in one pass, in schedule order),
    per-board end times (the last event on each board), and the engine's
    execution stats.  Boards the core marks tied — and every board of a
    ``kernel`` bundle — go to ``replay`` (the fleet driver's kernel
    replay).

    ``recorder`` (a :class:`repro.runtime.fleet.FleetTelemetryRecorder`)
    collects windowed telemetry as per-step columns on the cores and
    per-event tuples on kernel replays; all derivation and aggregation is
    deferred to the store's first read, so the simulated outcome is
    bit-identical with or without it.
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
    rows = [dict(zip(COUNTER_FIELDS, row)) for row in counters.T.tolist()]
    end_times = ends.tolist()
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
