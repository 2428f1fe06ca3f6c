"""The persistent warm worker pool behind the parallel sweep engine.

A :class:`WorkerPool` owns a set of long-lived *spawn*-context worker
processes.  Workers are spawned **once** — paying the process start + full
``repro`` import cost exactly one time — and then serve jobs over their
duplex pipes for as many :meth:`~repro.exec.engine.ParallelSweepEngine.run`
calls as the pool lives, which is what turns the engine from "26x slower
than serial on a small grid" into "overhead amortized away":

- the pool is *passive*: it spawns, tracks, respawns and stops worker
  processes, but never schedules work — the engine owns the pending deque
  and the dispatch policy (see ``exec/engine.py``);
- one pool may be shared across engines (design-space sweeps and
  link-level SNR sharding accept ``pool=``), but only one engine run may
  borrow it at a time (:meth:`acquire`/:meth:`release`
  enforce this — the pipes carry per-run protocol state);
- a worker that crashes or is killed for a hung job is *replaced* into the
  warm pool by the engine (:meth:`spawn` again), so one bad job never
  cools the pool down;
- every worker keeps one :class:`~repro.flows.pipeline.ArtifactCache` for
  its whole life.  :meth:`reset_caches` points all workers at a fresh
  cache (optionally a new shared disk dir) without respawning them —
  benchmarks use this to measure a *cold cache on a warm pool*, which is
  the honest way to compare against a cold serial run.

The pool closes its workers when garbage collected (each engine that
creates its own pool attaches a ``weakref.finalize``), on explicit
:meth:`close`, or with the pool as a context manager.  Workers are daemon
processes, so interpreter exit reaps any stragglers.
"""

from __future__ import annotations

import itertools
import multiprocessing
from collections import deque
from pathlib import Path
from time import time_ns
from typing import Optional

from repro.exec.worker import worker_main
from repro.obs.telemetry import get_telemetry

__all__ = ["WorkerPool", "PoolWorker"]

#: Seconds granted to a stopping/killed worker before escalating to SIGKILL.
_JOIN_GRACE_S = 5.0


class PoolWorker:
    """One live worker process plus its engine-side dispatch queue.

    ``queue`` holds the engine's in-flight records for jobs submitted to
    this worker (oldest first = the job the worker is running or will run
    next).  The pool guarantees the queue is empty between engine runs;
    the engine owns its contents during a run.
    """

    __slots__ = ("worker_id", "process", "conn", "queue", "ready")

    def __init__(self, worker_id: int, process, conn):
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.queue: deque = deque()  # engine-owned in-flight entries, FIFO
        #: True once the worker reported its imports complete.  A worker
        #: that dies *before* ready is a systemic failure (broken spawn
        #: environment): the engine must consume job attempts for it, or a
        #: respawn loop of dead-on-arrival workers would retry forever.
        self.ready = False


class WorkerPool:
    """A persistent pool of pre-imported spawn workers; see module docs."""

    def __init__(
        self,
        size: int,
        cache_dir: Optional[str | Path] = None,
        name: str = "pool",
        context: str = "spawn",
    ):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.size = size
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.name = name
        self._ctx = multiprocessing.get_context(context)
        self._workers: dict[int, PoolWorker] = {}
        self._seq = itertools.count()
        self._closed = False
        self._borrower: Optional[str] = None
        #: Lifetime counters (benchmarks and tests read these).
        self.spawned_total = 0

    # -- lifecycle --------------------------------------------------------------

    @property
    def alive(self) -> list[PoolWorker]:
        """Registered workers in worker-id order (dispatch order)."""
        return [self._workers[k] for k in sorted(self._workers)]

    @property
    def warm_count(self) -> int:
        return len(self._workers)

    def spawn(self) -> PoolWorker:
        """Start one new worker (pays spawn + import cost exactly once)."""
        if self._closed:
            raise RuntimeError(f"worker pool {self.name!r} is closed")
        worker_id = next(self._seq)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, worker_id, self.cache_dir),
            name=f"{self.name}-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle = PoolWorker(worker_id, process, parent_conn)
        self._workers[worker_id] = handle
        self.spawned_total += 1
        self._record_size(spawned=1)
        return handle

    def ensure(self, n: int) -> list[PoolWorker]:
        """Spawn until ``min(n, size)`` workers are registered; returns the
        newly spawned handles (empty when the pool is already warm enough)."""
        target = min(n, self.size)
        return [self.spawn() for _ in range(target - len(self._workers))]

    def _record_size(self, spawned: int = 0) -> None:
        """Ambient telemetry: spawn counter + warm-size gauge (None = free)."""
        hub = get_telemetry()
        if hub is None:
            return
        store = hub.store("wall")
        now = time_ns()
        if spawned:
            store.counter_add("exec.pool.spawned", now, spawned, pool=self.name)
        store.gauge_set("exec.pool.warm", now, len(self._workers), pool=self.name)

    def discard(self, handle: PoolWorker, kill: bool = True) -> None:
        """Remove one worker from the pool, terminating its process."""
        self._workers.pop(handle.worker_id, None)
        self._record_size()
        if kill:
            handle.process.terminate()
        handle.process.join(_JOIN_GRACE_S)
        if handle.process.is_alive():  # pragma: no cover - stubborn child
            handle.process.kill()
            handle.process.join(_JOIN_GRACE_S)
        try:
            handle.conn.close()
        except OSError:
            pass

    def recycle(self) -> None:
        """Kill every worker (the pool stays usable — ensure() respawns).

        The engine calls this when a run aborts abnormally: in-flight
        protocol state would poison the pipes for the next run, so the
        warm pool is sacrificed for correctness.
        """
        for handle in list(self._workers.values()):
            self.discard(handle, kill=True)

    def close(self) -> None:
        """Stop every worker gracefully and refuse further use."""
        if self._closed:
            return
        self._closed = True
        for handle in list(self._workers.values()):
            try:
                handle.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for handle in list(self._workers.values()):
            self.discard(handle, kill=False)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- borrow protocol ---------------------------------------------------------

    def acquire(self, borrower: str) -> None:
        """Mark the pool in use by one engine run (pipes are stateful)."""
        if self._borrower is not None:
            raise RuntimeError(
                f"worker pool {self.name!r} is already running a sweep for "
                f"{self._borrower!r}; one pool serves one run at a time"
            )
        self._borrower = borrower

    def release(self) -> None:
        self._borrower = None

    # -- warm-pool cache control -------------------------------------------------

    def reset_caches(self, cache_dir: Optional[str | Path] = None) -> None:
        """Point every worker at a fresh :class:`ArtifactCache`.

        With ``cache_dir`` the new cache shares that disk tier (workers
        spawned later inherit it too); without, each worker gets a private
        in-memory cache.  The reset rides the ordinary job pipes, so it
        applies in FIFO order after any jobs already submitted.
        """
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        for handle in list(self._workers.values()):
            try:
                handle.conn.send(("reset_cache", self.cache_dir))
            except (BrokenPipeError, OSError):
                self.discard(handle, kill=True)
