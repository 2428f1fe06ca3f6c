"""Seeded request-stream generators for the fleet driver.

Each board gets a pre-generated schedule of ``(gap_ns, region, module)``
requests.  Generating up front (instead of sampling inside the simulation
processes) keeps the event kernel deterministic regardless of board
interleaving, lets the clairvoyant Belady policy see its future, and makes a
board's traffic a pure function of ``(seed, board_id)``.

A fleet's schedules are born as a :class:`ScheduleSet`: three
``(boards, requests)`` int64 arrays (gap, region index, module index).
:func:`generate_schedules` builds it for all boards in lockstep, one numpy
step per request position, while every board still replays its own
``random.Random`` stream word for word — so board ``b`` of the set equals
:func:`generate_schedule` on that board's generator.  The fast engine reads
the arrays as they are; the kernel, the fast engine's chronological loop
and :func:`future_from_schedule` read the decoded per-board tuple view.  The
scalar generators behind :func:`generate_schedule` are the reference oracle.

Patterns:

- ``poisson`` — exponential inter-arrival gaps with occasional tight bursts;
  module selection follows a noisy cycle (predictable enough that learned
  prefetchers can win, noisy enough that they can lose).
- ``diurnal`` — sinusoidally rate-modulated load (the day/night swing of a
  deployed fleet) over a deterministic module rotation.
- ``thrash`` — adversarial: uniform random module excluding the current one,
  so every request misses and history-based prediction has nothing to learn.
"""

from __future__ import annotations

import math
import numbers
import random
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "TRAFFIC_PATTERNS",
    "ScheduleSet",
    "board_rng",
    "generate_schedule",
    "generate_schedules",
    "future_from_schedule",
]

TRAFFIC_PATTERNS = ("poisson", "diurnal", "thrash")


def board_rng(seed: int, board_id: str) -> random.Random:
    """Independent, reproducible RNG per board.

    String seeds hash stably in :mod:`random` (unlike ``hash()``), so the
    stream depends only on the values, not the interpreter run.
    """
    return random.Random(f"{seed}:{board_id}")


def _pick_region(rng: random.Random, regions: Sequence[str]) -> str:
    return regions[rng.randrange(len(regions))]


def _poisson(
    rng: random.Random,
    regions: dict[str, list[str]],
    n_requests: int,
    mean_gap_ns: int,
) -> list[tuple[int, str, str]]:
    names = sorted(regions)
    cursor = {r: 0 for r in names}
    schedule: list[tuple[int, str, str]] = []
    burst_left = 0
    while len(schedule) < n_requests:
        if burst_left > 0:
            gap = 1 + int(rng.expovariate(1.0) * mean_gap_ns / 10)
            burst_left -= 1
        else:
            gap = 1 + int(rng.expovariate(1.0) * mean_gap_ns)
            if rng.random() < 0.1:
                burst_left = rng.randrange(3, 9)
        region = _pick_region(rng, names)
        modules = regions[region]
        # Noisy cycle: usually advance to the next module in rotation, the
        # rest of the time jump anywhere.  Learnable but not trivial.
        if rng.random() < 0.8:
            cursor[region] = (cursor[region] + 1) % len(modules)
        else:
            cursor[region] = rng.randrange(len(modules))
        schedule.append((gap, region, modules[cursor[region]]))
    return schedule


def _diurnal(
    rng: random.Random,
    regions: dict[str, list[str]],
    n_requests: int,
    mean_gap_ns: int,
) -> list[tuple[int, str, str]]:
    names = sorted(regions)
    cursor = {r: 0 for r in names}
    # One "day" spans roughly n_requests/2 requests so every run sees at
    # least a couple of peaks and troughs.
    period = max(2, n_requests // 2)
    phase = rng.random() * 2 * math.pi
    schedule: list[tuple[int, str, str]] = []
    for i in range(n_requests):
        # Rate swings 4x between trough and peak -> gap swings inversely.
        swing = 1.0 + 0.6 * math.sin(2 * math.pi * i / period + phase)
        gap = 1 + int(rng.expovariate(1.0) * mean_gap_ns * swing)
        region = _pick_region(rng, names)
        modules = regions[region]
        cursor[region] = (cursor[region] + 1) % len(modules)
        schedule.append((gap, region, modules[cursor[region]]))
    return schedule


def _thrash(
    rng: random.Random,
    regions: dict[str, list[str]],
    n_requests: int,
    mean_gap_ns: int,
) -> list[tuple[int, str, str]]:
    names = sorted(regions)
    current: dict[str, int] = {r: 0 for r in names}
    schedule: list[tuple[int, str, str]] = []
    for _ in range(n_requests):
        gap = 1 + int(rng.expovariate(1.0) * mean_gap_ns)
        region = _pick_region(rng, names)
        modules = regions[region]
        if len(modules) > 1:
            # Uniform over the *other* modules: every request is a swap and
            # carries no sequential signal for a predictor to latch onto.
            step = rng.randrange(1, len(modules))
            current[region] = (current[region] + step) % len(modules)
        schedule.append((gap, region, modules[current[region]]))
    return schedule


_GENERATORS = {"poisson": _poisson, "diurnal": _diurnal, "thrash": _thrash}


def _check_traffic(
    pattern: str, regions: dict[str, list[str]], n_requests: int, mean_gap_ns: int
) -> None:
    if pattern not in _GENERATORS:
        known = ", ".join(TRAFFIC_PATTERNS)
        raise ValueError(f"unknown traffic pattern {pattern!r}; known: {known}")
    if n_requests < 0:
        raise ValueError("n_requests must be >= 0")
    if mean_gap_ns < 0:
        raise ValueError(f"mean_gap_ns must be >= 0, got {mean_gap_ns}")
    if not regions or any(not mods for mods in regions.values()):
        raise ValueError("every region needs at least one module")


def generate_schedule(
    pattern: str,
    rng: random.Random,
    regions: dict[str, list[str]],
    n_requests: int,
    mean_gap_ns: int = 200_000,
) -> list[tuple[int, str, str]]:
    """A board's full request schedule: ``[(gap_ns, region, module), ...]``."""
    _check_traffic(pattern, regions, n_requests, mean_gap_ns)
    return _GENERATORS[pattern](rng, regions, n_requests, mean_gap_ns)


def future_from_schedule(schedule: Sequence[tuple[int, str, str]]) -> dict[str, list[str]]:
    """Per-region demand sequence, as :class:`BeladyEviction` expects it."""
    future: dict[str, list[str]] = {}
    for _gap, region, module in schedule:
        future.setdefault(region, []).append(module)
    return future


# ---------------------------------------------------------------------------
# the array form: a whole fleet's schedules, generated in lockstep
# ---------------------------------------------------------------------------


class ScheduleSet:
    """Every board's schedule as three ``(boards, requests)`` int64 arrays.

    ``gaps[b, s]`` is the gap before board ``b``'s request ``s``;
    ``regions[b, s]`` indexes ``region_map`` in its key order and
    ``modules[b, s]`` indexes that region's module list.  The arrays are
    column-major, so one request position across all boards — what the
    vector cores read per step — is contiguous.

    As a sequence the set holds the decoded per-board
    ``[(gap_ns, region, module), ...]`` lists: ``len()`` is the board
    count, an index decodes one board and a slice is a smaller set.
    """

    def __init__(
        self,
        gaps: np.ndarray,
        regions: np.ndarray,
        modules: np.ndarray,
        region_map: dict[str, list[str]],
    ):
        self.gaps = gaps
        self.regions = regions
        self.modules = modules
        self.region_map = region_map
        self._names = list(region_map)
        self._module_names = list(region_map.values())

    @classmethod
    def from_tuples(
        cls,
        schedules: Sequence[Sequence[tuple[int, str, str]]],
        region_map: dict[str, list[str]],
        n_requests: int,
    ) -> "ScheduleSet":
        """Pack per-board tuple lists, rejecting any the engines cannot run.

        Every board needs exactly ``n_requests`` entries, each naming a
        region and module of ``region_map`` with an int gap >= 0.
        """
        ridx = {name: i for i, name in enumerate(region_map)}
        midx = {name: {m: i for i, m in enumerate(mods)} for name, mods in region_map.items()}
        gaps: list[int] = []
        regs: list[int] = []
        mods: list[int] = []
        for board, schedule in enumerate(schedules):
            if len(schedule) != n_requests:
                raise ValueError(
                    f"board {board}: {len(schedule)} requests, expected {n_requests}"
                )
            for gap, region, module in schedule:
                if module not in midx.get(region, ()):
                    raise ValueError(
                        f"board {board}: ({region!r}, {module!r}) is not in the region map"
                    )
                if not isinstance(gap, numbers.Integral) or gap < 0:
                    raise ValueError(f"board {board}: gap {gap!r} is not an int >= 0")
                gaps.append(gap)
                regs.append(ridx[region])
                mods.append(midx[region][module])
        shape = (len(schedules), n_requests)

        def pack(values: list[int]) -> np.ndarray:
            return np.asfortranarray(np.array(values, dtype=np.int64).reshape(shape))

        return cls(pack(gaps), pack(regs), pack(mods), region_map)

    @property
    def n_requests(self) -> int:
        return self.gaps.shape[1]

    def __len__(self) -> int:
        return self.gaps.shape[0]

    def __getitem__(self, key):
        if isinstance(key, slice):
            return ScheduleSet(
                self.gaps[key], self.regions[key], self.modules[key], self.region_map
            )
        index = range(len(self))[key]
        names, module_names = self._names, self._module_names
        return [
            (gap, names[r], module_names[r][m])
            for gap, r, m in zip(
                self.gaps[index].tolist(),
                self.regions[index].tolist(),
                self.modules[index].tolist(),
            )
        ]

    def __iter__(self) -> Iterator[list[tuple[int, str, str]]]:
        return (self[index] for index in range(len(self)))


#: words each board holds between refills from its generator
_BLOCK_WORDS = 1024
#: words a rejection draw (``randrange``) reads ahead in one vector step
_LOOKAHEAD = 16
#: the most words one request step reads past a board's cursor (poisson:
#: three ``random()`` calls and three rejection draws)
_STEP_WORDS = 6 + 3 * _LOOKAHEAD
#: a vector gap this close (relative) to an integer is recomputed with
#: ``math``: numpy's ``log``/``sin`` may differ from libm's by an ulp, which
#: can flip the ``int()`` truncation only this close to an integer
_NEAR_INT = 1e-12


class _BoardWords:
    """Every board's own ``random.Random`` word stream, read in lockstep.

    Each board keeps a block of its next 32-bit words plus a cursor; a draw
    reads at every board's cursor at once and advances each cursor by the
    words that board used, so branches and rejection loops that differ per
    board stay exact.  A refill takes one ``getrandbits(32 * n)`` from the
    board's generator: CPython fills it from the same words, least
    significant first, that one-word draws return.
    """

    def __init__(self, rngs: Sequence[random.Random]):
        self.rngs = rngs
        n_boards = len(rngs)
        self.buf = np.empty((n_boards, _BLOCK_WORDS), dtype=np.uint32)
        self.flat = self.buf.reshape(-1)
        #: ``windows[b, c]`` is board b's next _LOOKAHEAD words from c (a view)
        self.windows = sliding_window_view(self.buf, _LOOKAHEAD, axis=1)
        self.every = np.arange(n_boards)
        self.base = self.every * _BLOCK_WORDS
        # every block starts used up: the first ensure() fills them all
        self.cur = np.full(n_boards, _BLOCK_WORDS, dtype=np.int64)

    def _refill(self, board: int) -> None:
        used = int(self.cur[board])
        kept = _BLOCK_WORDS - used
        row = self.buf[board]
        row[:kept] = row[used:]
        fresh = self.rngs[board].getrandbits(32 * used).to_bytes(4 * used, "little")
        row[kept:] = np.frombuffer(fresh, dtype="<u4")
        self.cur[board] = 0

    def ensure(self) -> None:
        """Give every board at least one request step's words ahead."""
        for board in np.flatnonzero(self.cur > _BLOCK_WORDS - _STEP_WORDS).tolist():
            self._refill(board)

    def random(self, boards=None) -> np.ndarray:
        """``rng.random()`` for ``boards`` (every board when None)."""
        if boards is None:
            boards = slice(None)
        cur = self.cur[boards]
        pos = self.base[boards] + cur
        a = self.flat[pos] >> 5
        b = self.flat[pos + 1] >> 6
        self.cur[boards] = cur + 2
        return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)

    def below(self, n, shift, boards=None) -> np.ndarray:
        """``rng.randrange(n)`` for ``boards``: ``getrandbits(k)`` until < n.

        ``shift`` is ``32 - n.bit_length()``; both may be per-board arrays.
        The next :data:`_LOOKAHEAD` words of each board are tested at once;
        a board whose whole window is rejected finishes word by word.
        """
        if boards is None:
            boards = self.every
        cur = self.cur[boards]
        window = self.windows[boards, cur]
        limit = np.left_shift(n, shift)  # word >> shift < n  <=>  word < limit
        ok = window < (limit[:, None] if np.ndim(limit) else limit)
        first = ok.argmax(axis=1)
        rows = np.arange(len(first))
        found = ok[rows, first]
        value = (window[rows, first] >> shift).astype(np.int64)
        self.cur[boards] = cur + np.where(found, first + 1, _LOOKAHEAD)
        for j in np.flatnonzero(~found).tolist():
            n_j = int(np.broadcast_to(n, cur.shape)[j])
            shift_j = int(np.broadcast_to(shift, cur.shape)[j])
            value[j] = self._below_slow(int(boards[j]), n_j, shift_j)
        return value

    def _below_slow(self, board: int, n: int, shift: int) -> int:
        while True:
            if self.cur[board] >= _BLOCK_WORDS:
                self._refill(board)
            word = int(self.buf[board, self.cur[board]]) >> shift
            self.cur[board] += 1
            if word < n:
                break
        self._refill(board)  # a full step's words ahead again
        return word


def _truncate(raw: np.ndarray, exact: Callable[[np.ndarray], list[float]]) -> np.ndarray:
    """``1 + int(raw)``, with ``exact(rows)`` recomputing near-integer rows."""
    near = np.flatnonzero(np.abs(raw - np.rint(raw)) <= raw * _NEAR_INT)
    if near.size:
        raw[near] = exact(near)
    return 1 + raw.astype(np.int64)


def _expovariate(u: np.ndarray) -> np.ndarray:
    return -np.log(1.0 - u)


def _shift(n: int) -> int:
    return 32 - n.bit_length()


class _Lockstep:
    """Shared state of one lockstep generation: streams, tables, outputs."""

    def __init__(self, rngs, regions: dict[str, list[str]], n_requests: int, mean_gap_ns: int):
        self.words = _BoardWords(rngs)
        self.mean_gap_ns = mean_gap_ns
        order = list(regions)
        names = sorted(regions)
        # the generators pick in sorted-name order; the set stores map order
        # (they differ from 11 regions up: "R10" < "R2")
        self.pick = np.array([order.index(name) for name in names], dtype=np.int64)
        self.n_regions = len(names)
        self.region_shift = _shift(len(names))
        counts = [len(regions[name]) for name in order]
        self.n_mods = np.array(counts, dtype=np.int64)
        self.mod_shift = np.array([_shift(c) for c in counts], dtype=np.int64)
        # thrash draws among the other c - 1 modules (never where c == 1)
        self.other_shift = np.array([_shift(max(c - 1, 1)) for c in counts], dtype=np.int64)
        n_boards = len(rngs)
        self.bi = np.arange(n_boards)
        self.state = np.zeros((n_boards, len(order)), dtype=np.int64)
        shape = (n_boards, n_requests)
        self.gaps = np.empty(shape, dtype=np.int64, order="F")
        self.regs = np.empty(shape, dtype=np.int64, order="F")
        self.mods = np.empty(shape, dtype=np.int64, order="F")

    def region(self) -> np.ndarray:
        return self.pick[self.words.below(self.n_regions, self.region_shift)]

    def store(self, step: int, gaps: np.ndarray, region: np.ndarray, module: np.ndarray) -> None:
        self.state[self.bi, region] = module
        self.gaps[:, step] = gaps
        self.regs[:, step] = region
        self.mods[:, step] = module


def _poisson_lockstep(run: _Lockstep, n_requests: int) -> None:
    words, mean = run.words, run.mean_gap_ns
    burst_left = np.zeros(len(run.bi), dtype=np.int64)
    for step in range(n_requests):
        words.ensure()
        u = words.random()
        bursting = burst_left > 0
        raw = _expovariate(u) * mean
        raw = np.where(bursting, raw / 10, raw)

        def exact(rows):
            return [
                -math.log(1.0 - x) * mean / 10 if burst else -math.log(1.0 - x) * mean
                for x, burst in zip(u[rows].tolist(), bursting[rows].tolist())
            ]

        gaps = _truncate(raw, exact)
        burst_left -= bursting
        calm = np.flatnonzero(~bursting)
        starts = calm[words.random(calm) < 0.1]
        if starts.size:
            burst_left[starts] = 3 + words.below(6, _shift(6), starts)
        region = run.region()
        n_mods = run.n_mods[region]
        module = (run.state[run.bi, region] + 1) % n_mods
        jumps = np.flatnonzero(words.random() >= 0.8)
        if jumps.size:
            module[jumps] = words.below(
                n_mods[jumps], run.mod_shift[region[jumps]], jumps
            )
        run.store(step, gaps, region, module)


def _diurnal_lockstep(run: _Lockstep, n_requests: int) -> None:
    words, mean = run.words, run.mean_gap_ns
    period = max(2, n_requests // 2)
    words.ensure()
    phase = words.random() * 2 * math.pi
    for i in range(n_requests):
        words.ensure()
        angle = 2 * math.pi * i / period
        swing = 1.0 + 0.6 * np.sin(angle + phase)
        u = words.random()
        raw = _expovariate(u) * mean * swing

        def exact(rows):
            return [
                -math.log(1.0 - x) * mean * (1.0 + 0.6 * math.sin(angle + p))
                for x, p in zip(u[rows].tolist(), phase[rows].tolist())
            ]

        gaps = _truncate(raw, exact)
        region = run.region()
        module = (run.state[run.bi, region] + 1) % run.n_mods[region]
        run.store(i, gaps, region, module)


def _thrash_lockstep(run: _Lockstep, n_requests: int) -> None:
    words, mean = run.words, run.mean_gap_ns
    for step in range(n_requests):
        words.ensure()
        u = words.random()

        def exact(rows):
            return [-math.log(1.0 - x) * mean for x in u[rows].tolist()]

        gaps = _truncate(_expovariate(u) * mean, exact)
        region = run.region()
        n_mods = run.n_mods[region]
        module = run.state[run.bi, region]
        swap = np.flatnonzero(n_mods > 1)
        if swap.size:
            moved = 1 + words.below(
                n_mods[swap] - 1, run.other_shift[region[swap]], swap
            )
            module[swap] = (module[swap] + moved) % n_mods[swap]
        run.store(step, gaps, region, module)


_LOCKSTEP = {"poisson": _poisson_lockstep, "diurnal": _diurnal_lockstep, "thrash": _thrash_lockstep}


def generate_schedules(
    pattern: str,
    rngs: Sequence[random.Random],
    regions: dict[str, list[str]],
    n_requests: int,
    mean_gap_ns: int = 200_000,
) -> ScheduleSet:
    """One schedule per generator in ``rngs``, all boards in lockstep.

    Board ``b`` of the result decodes to exactly
    ``generate_schedule(pattern, rngs[b], regions, n_requests, mean_gap_ns)``
    on a fresh copy of ``rngs[b]``.  The generators are consumed in blocks,
    so their state afterwards is not the scalar path's.
    """
    _check_traffic(pattern, regions, n_requests, mean_gap_ns)
    run = _Lockstep(rngs, regions, n_requests, mean_gap_ns)
    _LOCKSTEP[pattern](run, n_requests)
    return ScheduleSet(run.gaps, run.regs, run.mods, regions)
