"""The parallel sweep engine: multi-process design-space exploration.

:class:`ParallelSweepEngine` schedules :class:`~repro.exec.worker.SweepJob`
records over a persistent :class:`~repro.exec.pool.WorkerPool` of
``multiprocessing`` *spawn* workers, each running the ordinary
:class:`~repro.flows.flow.DesignFlow` pipeline against a shared on-disk
:class:`~repro.flows.pipeline.ArtifactCache` (safe for concurrent access:
atomic write-rename, per-key advisory locks, corruption-tolerant reads).
The engine owns the scheduler:

- **warm pool** — workers spawn once (paying process start + full ``repro``
  import cost exactly once) and serve jobs across every ``run()`` call of
  the engine's life; pass ``pool=`` to share one pool across engines
  (design-space, link-level and search-restart sweeps all accept it);
- **pull-based dispatch** — jobs wait in one shared pending deque and flow
  to whichever worker frees up first; no worker ever owns a static shard,
  so one slow job cannot idle the other cores behind it (work stealing
  falls out of central pull for free);
- **batched submission** — each worker keeps up to ``prefetch_depth`` jobs
  queued locally (submitted as one pipe message), so it starts the next
  job without a round-trip and a 10k-job grid amortizes pipe latency while
  committing at most ``prefetch_depth`` jobs to any one worker;
- **per-job timeout** — the clock starts when the worker *starts* the job
  (its ``started`` message), not at dispatch; a worker that exceeds
  ``timeout_s`` is killed and replaced into the warm pool, failing only
  the running job's attempt — its queued-but-unstarted jobs re-enter the
  pending deque with **no attempt consumed**;
- **bounded retry with exponential backoff** — a job may fail/crash/time
  out ``retries`` times before it is recorded as failed; each retry waits
  ``backoff_s * 2**(attempt-1)``;
- **graceful degradation** — a crashed or hung worker fails only the job
  it was running; the sweep always completes and reports partial results,
  and the pool stays warm (dead workers are respawned).

Under a recording tracer the engine narrates its own lifecycle as
``sweep:<kind>`` row spans (one per job dispatched/started/finished/
retried/timed out/failed, per worker spawned/crashed, and one summary when
the sweep completes; see :mod:`repro.flows.observe`), and traced workers
ship their spans — pipeline stage rows included — and their telemetry
hub's rows back before each job outcome.  ``--profile`` and ``--log-json``
therefore cover parallel runs exactly as they cover serial ones.  Each job
outcome also carries the hits and misses the job added to its worker's
artifact cache, which become the report's stage-cache counts.

Worker pipes are deliberately one-per-worker (no shared queue): killing a
hung worker can then never corrupt or deadlock a lock shared with its
siblings — its pipe simply reads EOF.
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from pathlib import Path
from time import monotonic, perf_counter, perf_counter_ns, time_ns
from typing import Any, Optional, Sequence

from repro.exec.pool import PoolWorker, WorkerPool
from repro.exec.worker import SweepJob, run_job
from repro.flows.observe import row_attributes
from repro.flows.pipeline import ArtifactCache, CacheStats
from repro.obs import NOOP_TRACER, Span, get_tracer
from repro.obs.telemetry import get_telemetry, store_row

__all__ = ["SWEEP_EVENT_KINDS", "SweepJobResult", "SweepReport", "ParallelSweepEngine"]

#: Every lifecycle kind the engine narrates (as ``sweep:<kind>`` row spans).
SWEEP_EVENT_KINDS = (
    "job_dispatched",
    "job_started",
    "job_finished",
    "job_failed",
    "job_retried",
    "job_timeout",
    "worker_spawned",
    "worker_respawned",
    "worker_crashed",
    "pool_reused",
    "sweep_completed",
)


@dataclass
class SweepJobResult:
    """Outcome of one job, after all attempts."""

    job_id: str
    ok: bool
    attempts: int
    wall_time_s: float
    payload: Optional[dict[str, Any]] = None  #: run_job() result when ok
    error: Optional[str] = None  #: last failure reason when not ok

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "ok": self.ok,
            "attempts": self.attempts,
            "wall_time_s": self.wall_time_s,
            "payload": self.payload,
            "error": self.error,
        }


@dataclass
class SweepReport:
    """Everything a sweep produced, results in submission order."""

    sweep: str
    results: list[SweepJobResult]
    wall_time_s: float
    #: Hits and misses every job attempt added to its artifact cache.
    cache_stats: CacheStats = field(default_factory=CacheStats)

    @property
    def succeeded(self) -> list[SweepJobResult]:
        return [r for r in self.results if r.ok]

    @property
    def failed(self) -> list[SweepJobResult]:
        return [r for r in self.results if not r.ok]

    def cache_hits(self) -> int:
        return self.cache_stats.hits

    def cache_lookups(self) -> int:
        return self.cache_stats.lookups

    def cache_hit_rate(self) -> float:
        return self.cache_stats.hit_rate()

    def summary(self) -> str:
        lines = [
            f"sweep {self.sweep}: {len(self.succeeded)}/{len(self.results)} jobs ok "
            f"in {self.wall_time_s:.2f} s, stage cache {self.cache_hits()}/"
            f"{self.cache_lookups()} hit ({100 * self.cache_hit_rate():.0f}%)"
        ]
        for result in self.failed:
            lines.append(
                f"  FAILED {result.job_id} after {result.attempts} attempt(s): {result.error}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "sweep": self.sweep,
            "wall_time_s": self.wall_time_s,
            "jobs": len(self.results),
            "succeeded": len(self.succeeded),
            "failed": len(self.failed),
            "cache_hits": self.cache_hits(),
            "cache_lookups": self.cache_lookups(),
            "cache_hit_rate": self.cache_hit_rate(),
            "results": [r.to_dict() for r in self.results],
        }


class _InFlight:
    """One job committed to a worker's local queue (engine-side record)."""

    __slots__ = ("job", "attempt", "span", "head_since", "started_at")

    def __init__(self, job, attempt: int, span, head_since: float):
        self.job = job
        self.attempt = attempt
        self.span = span
        #: monotonic time this entry reached the *front* of its worker's
        #: queue (the worker is about to start it); the provisional
        #: timeout clock until ``started`` arrives.
        self.head_since = head_since
        self.started_at: Optional[float] = None

    def deadline(self, timeout_s: Optional[float]) -> Optional[float]:
        if timeout_s is None:
            return None
        return (self.started_at if self.started_at is not None else self.head_since) + timeout_s


class ParallelSweepEngine:
    """Schedule sweep jobs over a warm worker pool; see module docs.

    ``jobs=0`` degrades to a fully in-process serial run through the very
    same :func:`run_job` code path — the reference for byte-identity
    checks and handy under a debugger.

    The engine creates (and owns) its pool lazily on the first parallel
    ``run()`` and keeps it warm for subsequent runs; ``close()`` (or the
    engine as a context manager, or garbage collection) stops the owned
    pool.  Pass ``pool=`` to share a caller-owned
    :class:`~repro.exec.pool.WorkerPool` instead — the engine then uses up
    to ``pool.size`` workers and never closes it.  When the engine's
    ``cache_dir`` differs from the pool's current one, the pool's workers
    are pointed at the engine's cache before any job is dispatched.
    """

    def __init__(
        self,
        jobs: int = 2,
        timeout_s: Optional[float] = None,
        retries: int = 1,
        backoff_s: float = 0.05,
        cache_dir: Optional[str | Path] = None,
        sweep_name: str = "sweep",
        pool: Optional[WorkerPool] = None,
        prefetch_depth: int = 2,
    ):
        if jobs < 0:
            raise ValueError("jobs must be >= 0 (0 = serial in-process)")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if prefetch_depth < 1:
            raise ValueError("prefetch_depth must be >= 1")
        #: A supplied pool decides the worker count — ``jobs`` is a request
        #: for engine-owned workers and is ignored when borrowing.
        self.n_workers = pool.size if pool is not None else jobs
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.sweep_name = sweep_name
        self.prefetch_depth = prefetch_depth
        self._cache_stats = CacheStats()
        self._sweep_span = NOOP_TRACER.span("sweep")
        self._pool = pool
        self._owns_pool = False
        self._pool_finalizer = None

    # -- pool lifecycle ---------------------------------------------------------

    def _ensure_pool(self) -> WorkerPool:
        if self._pool is None:
            self._pool = WorkerPool(
                self.n_workers, cache_dir=self.cache_dir, name=self.sweep_name
            )
            self._owns_pool = True
            # Close the owned pool when the engine is collected, so engines
            # used fire-and-forget do not strand warm worker processes.
            self._pool_finalizer = weakref.finalize(self, WorkerPool.close, self._pool)
        elif self.cache_dir is not None and self._pool.cache_dir != self.cache_dir:
            self._pool.reset_caches(self.cache_dir)
        return self._pool

    @property
    def pool(self) -> Optional[WorkerPool]:
        """The engine's pool (``None`` until the first parallel run)."""
        return self._pool

    def close(self) -> None:
        """Stop the owned worker pool (a later ``run()`` re-creates one)."""
        if self._owns_pool and self._pool is not None:
            self._pool.close()
            if self._pool_finalizer is not None:
                self._pool_finalizer.detach()
                self._pool_finalizer = None
            self._pool = None
            self._owns_pool = False

    def __enter__(self) -> "ParallelSweepEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- narration --------------------------------------------------------------

    def _emit(
        self,
        kind: str,
        job: str = "",
        worker: Optional[int] = None,
        attempt: int = 0,
        wall_time_s: float = 0.0,
        detail: str = "",
        metrics: Optional[dict] = None,
    ) -> None:
        """Record one ``sweep:<kind>`` row span when a tracer records.

        The span ends now and lasts the step's ``wall_time_s`` (zero for
        instants such as a dispatch).
        """
        if kind not in SWEEP_EVENT_KINDS:
            raise ValueError(f"unknown sweep event kind {kind!r}")
        tracer = get_tracer()
        if not tracer.enabled:
            return
        metrics = dict(metrics or {})
        if worker is not None:
            metrics.setdefault("worker", worker)
        if attempt:
            metrics.setdefault("attempt", attempt)
        if detail:
            metrics.setdefault("detail", detail)
        name = f"sweep:{kind}"
        duration_ns = round(wall_time_s * 1e9)
        tracer.add_span(
            Span(
                name=name,
                context=tracer.span(name, parent=self._sweep_span.context).context,
                start_ns=tracer.to_epoch_ns(perf_counter_ns()) - duration_ns,
                duration_ns=duration_ns,
                process=tracer.process,
                track=tracer.track,
                attributes=row_attributes(
                    f"{self.sweep_name}/{job}" if job else self.sweep_name, metrics
                ),
            )
        )

    def _count_cache(self, hits: int, misses: int) -> None:
        self._cache_stats.hits += hits
        self._cache_stats.misses += misses

    # -- serial fallback --------------------------------------------------------

    def _run_serial(self, jobs: Sequence[SweepJob]) -> SweepReport:
        import pickle

        cache = ArtifactCache(disk_dir=self.cache_dir) if self.cache_dir else ArtifactCache()
        tracer = get_tracer()
        results: list[SweepJobResult] = []
        sweep_started = perf_counter()
        for job in jobs:
            # Cross the same pickle boundary a worker pipe imposes, so the
            # serial path produces byte-identical artifacts to parallel runs.
            job = pickle.loads(pickle.dumps(job))
            last_error = None
            for attempt in range(1, self.retries + 2):
                self._emit("job_started", job=job.job_id, attempt=attempt)
                started = perf_counter()
                try:
                    with tracer.span(
                        f"job:{job.job_id}", parent=self._sweep_span.context
                    ) as job_span:
                        if tracer.enabled:
                            job_span.set_attribute("attempt", attempt)
                        payload = run_job(job, attempt=attempt, cache=cache)
                except Exception as err:
                    wall = perf_counter() - started
                    last_error = f"{type(err).__name__}: {err}"
                    if attempt <= self.retries:
                        self._emit(
                            "job_retried", job=job.job_id, attempt=attempt,
                            wall_time_s=wall, detail=last_error,
                        )
                        continue
                    self._emit(
                        "job_failed", job=job.job_id, attempt=attempt,
                        wall_time_s=wall, detail=last_error,
                    )
                    results.append(
                        SweepJobResult(job.job_id, ok=False, attempts=attempt,
                                       wall_time_s=wall, error=last_error)
                    )
                    break
                wall = perf_counter() - started
                self._emit("job_finished", job=job.job_id, attempt=attempt, wall_time_s=wall)
                results.append(
                    SweepJobResult(job.job_id, ok=True, attempts=attempt,
                                   wall_time_s=wall, payload=payload)
                )
                break
        self._count_cache(cache.stats.hits, cache.stats.misses)
        return self._finish(jobs, {r.job_id: r for r in results}, sweep_started)

    # -- the parallel scheduler -------------------------------------------------

    def run(self, jobs: Sequence[SweepJob]) -> SweepReport:
        """Run every job; always returns a complete :class:`SweepReport`."""
        ids = [job.job_id for job in jobs]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate job ids: {ids}")
        self._cache_stats = CacheStats()
        tracer = get_tracer()
        self._sweep_span = tracer.span(
            f"sweep:{self.sweep_name}",
            attributes={"jobs": len(jobs), "workers": self.n_workers}
            if tracer.enabled
            else None,
        ).start()
        if not jobs:
            return self._finish(jobs, {}, perf_counter())
        if self.n_workers == 0:
            return self._run_serial(jobs)

        sweep_started = perf_counter()
        pool = self._ensure_pool()
        pool.acquire(self.sweep_name)
        hub = get_telemetry()
        if hub is not None:
            # borrow latency: how long this run waited for warm capacity
            hub.store("wall").observe(
                "exec.borrow_latency_ns", time_ns(),
                (perf_counter() - sweep_started) * 1e9, pool=pool.name,
            )
        try:
            results = self._run_pooled(pool, jobs, tracer)
        except BaseException:
            # In-flight pipe state would poison the next run: sacrifice the
            # warm workers, keep the pool object usable.
            pool.recycle()
            raise
        finally:
            pool.release()
        return self._finish(jobs, results, sweep_started)

    def _run_pooled(
        self, pool: WorkerPool, jobs: Sequence[SweepJob], tracer
    ) -> dict[str, SweepJobResult]:
        warm = pool.warm_count
        if warm:
            self._emit("pool_reused", metrics={"warm_workers": warm})
        for handle in pool.ensure(min(self.n_workers, len(jobs))):
            self._emit("worker_spawned", worker=handle.worker_id)
        # ambient telemetry (wall-clock windows): resolved once per run so
        # the disabled cost inside the dispatch loop is one None check
        hub = get_telemetry()
        tstore = hub.store("wall") if hub is not None else None
        pool_label = pool.name

        #: Jobs ready to dispatch, FIFO; retries re-enter via the backoff heap.
        pending: deque[tuple[SweepJob, int]] = deque((job, 1) for job in jobs)
        #: min-heap of (eligible_at_monotonic, seq, job, attempt).
        backoff: list[tuple[float, int, SweepJob, int]] = []
        seq = itertools.count()
        results: dict[str, SweepJobResult] = {}

        def fail_attempt(entry: _InFlight, reason: str, wall: float, worker_id: int) -> None:
            if tracer.enabled:
                entry.span.set_attribute("error", reason)
            entry.span.end()
            if entry.attempt <= self.retries:
                eligible = monotonic() + self.backoff_s * (2 ** (entry.attempt - 1))
                heapq.heappush(backoff, (eligible, next(seq), entry.job, entry.attempt + 1))
                self._emit(
                    "job_retried", job=entry.job.job_id, worker=worker_id,
                    attempt=entry.attempt, wall_time_s=wall, detail=reason,
                )
            else:
                results[entry.job.job_id] = SweepJobResult(
                    entry.job.job_id, ok=False, attempts=entry.attempt,
                    wall_time_s=wall, error=reason,
                )
                self._emit(
                    "job_failed", job=entry.job.job_id, worker=worker_id,
                    attempt=entry.attempt, wall_time_s=wall, detail=reason,
                )

        def requeue_unstarted(handle: PoolWorker) -> None:
            """Return a dead worker's queued-but-unstarted jobs to pending.

            These jobs never ran, so no attempt is consumed — the crash
            accounting must keep every job tracked in exactly one place
            (pending, backoff, a worker queue, or results) or the engine
            would wait forever on a job nobody owns.
            """
            orphans = list(handle.queue)
            handle.queue.clear()
            for entry in orphans:
                if tracer.enabled:
                    entry.span.set_attribute("requeued", True)
                entry.span.end()
            pending.extendleft((e.job, e.attempt) for e in reversed(orphans))

        def lose_worker(
            handle: PoolWorker, reason: str, *, kill: bool, fail_unstarted_head: bool = True
        ) -> None:
            """Crash/timeout path: fail the running job, requeue the rest.

            A crash (``fail_unstarted_head=False``) only consumes an attempt
            of a job the worker actually *started*; a head job the worker
            died before reaching is requeued attempt-intact.  A timeout
            always fails the head — its clock ran, started or not.
            """
            now = monotonic()
            if handle.queue and (fail_unstarted_head or handle.queue[0].started_at is not None):
                head = handle.queue.popleft()
                wall = now - (head.started_at if head.started_at is not None else head.head_since)
                fail_attempt(head, reason, wall, handle.worker_id)
            requeue_unstarted(handle)
            pool.discard(handle, kill=kill)

        def dispatch() -> None:
            now = monotonic()
            while backoff and backoff[0][0] <= now:
                _, _, job, attempt = heapq.heappop(backoff)
                pending.append((job, attempt))
            if not pending:
                return
            # Round-robin fill: one job per worker per pass, so small grids
            # spread across the pool before anyone's queue deepens.
            batches: dict[int, list[_InFlight]] = {}
            handles = {h.worker_id: h for h in pool.alive}
            assigned = True
            while pending and assigned:
                assigned = False
                for wid, handle in sorted(handles.items()):
                    if not pending:
                        break
                    depth = len(handle.queue) + len(batches.get(wid, ()))
                    if depth >= self.prefetch_depth:
                        continue
                    job, attempt = pending.popleft()
                    span = tracer.span(
                        f"job:{job.job_id}",
                        parent=self._sweep_span.context,
                        attributes={"worker": wid, "attempt": attempt}
                        if tracer.enabled
                        else None,
                    ).start()
                    batches.setdefault(wid, []).append(
                        _InFlight(job, attempt, span, head_since=now)
                    )
                    assigned = True
            for wid, entries in batches.items():
                handle = handles[wid]
                payload = [(e.job, e.attempt, e.span.context) for e in entries]
                try:
                    handle.conn.send(("jobs", payload))
                except (BrokenPipeError, OSError):
                    # Worker died before we could feed it: nothing in this
                    # batch ran, so everything re-enters pending untouched.
                    for entry in entries:
                        entry.span.end()
                    pending.extendleft((e.job, e.attempt) for e in reversed(entries))
                    self._emit(
                        "worker_crashed", worker=wid, detail="dispatch pipe closed"
                    )
                    lose_worker(
                        handle, "worker crashed (dispatch pipe closed)",
                        kill=True, fail_unstarted_head=not handle.ready,
                    )
                    continue
                handle.queue.extend(entries)
                for entry in entries:
                    self._emit(
                        "job_dispatched", job=entry.job.job_id,
                        worker=wid, attempt=entry.attempt,
                    )

        def ensure_workers() -> None:
            outstanding = len(pending) + len(backoff)
            for handle in pool.ensure(min(self.n_workers, len(pool.alive) + outstanding)):
                self._emit("worker_respawned", worker=handle.worker_id)
                if tstore is not None:
                    tstore.counter_add(
                        "exec.respawns", time_ns(), 1, pool=pool_label
                    )

        dispatch()
        while len(results) < len(jobs):
            ensure_workers()
            dispatch()
            if tstore is not None:
                # queue depth = everything not yet finished: pending deque,
                # backoff heap, and jobs parked on worker queues
                depth = (
                    len(pending) + len(backoff)
                    + sum(len(h.queue) for h in pool.alive)
                )
                tstore.gauge_set(
                    "exec.queue_depth", time_ns(), depth, pool=pool_label
                )

            # How long may we sleep?  Until the nearest job deadline or
            # backoff eligibility — forever (block on traffic) otherwise.
            now = monotonic()
            wake_times = []
            for handle in pool.alive:
                if handle.queue:
                    deadline = handle.queue[0].deadline(self.timeout_s)
                    if deadline is not None:
                        wake_times.append(deadline)
            if backoff:
                wake_times.append(backoff[0][0])
            timeout = max(0.0, min(wake_times) - now) if wake_times else None

            conn_to_handle = {h.conn: h for h in pool.alive}
            if conn_to_handle:
                ready = connection_wait(list(conn_to_handle), timeout)
            elif timeout is not None:  # every worker died; wait out the backoff
                import time as _time

                _time.sleep(min(timeout, 0.1))
                ready = []
            else:  # pragma: no cover - defensive: respawn on next iteration
                ready = []

            for conn in ready:
                handle = conn_to_handle[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    self._emit(
                        "worker_crashed", worker=handle.worker_id,
                        detail="connection lost",
                        job=handle.queue[0].job.job_id if handle.queue else "",
                    )
                    # A worker that died before ever reporting ready is a
                    # systemic spawn failure: consume the head attempt so
                    # bounded retry terminates instead of respawning forever.
                    lose_worker(
                        handle, "worker crashed (connection lost)",
                        kill=True, fail_unstarted_head=not handle.ready,
                    )
                    continue
                kind = message[0]
                if kind == "ready":
                    handle.ready = True
                    continue
                if kind == "started":
                    _, job_id, attempt = message
                    if handle.queue and handle.queue[0].job.job_id == job_id:
                        handle.queue[0].started_at = monotonic()
                    self._emit(
                        "job_started", job=job_id,
                        worker=handle.worker_id, attempt=attempt,
                    )
                elif kind == "spans":
                    tracer.add_spans(message[2])
                elif kind == "metrics":
                    if hub is not None:
                        for row in message[2]:
                            if not row.get("meta"):
                                store_row(hub.store(row["domain"]), row)
                elif kind == "done":
                    _, job_id, payload, wall, cache_traffic = message
                    self._count_cache(*cache_traffic)
                    entry = handle.queue.popleft()
                    if handle.queue:
                        handle.queue[0].head_since = monotonic()
                    handle.jobs_done += 1
                    if tracer.enabled:
                        entry.span.set_attribute("fits", payload.get("fits"))
                    entry.span.end()
                    results[job_id] = SweepJobResult(
                        job_id, ok=True, attempts=entry.attempt,
                        wall_time_s=wall, payload=payload,
                    )
                    if tstore is not None:
                        done_ns = time_ns()
                        tstore.counter_add(
                            "exec.jobs_done", done_ns, 1, pool=pool_label
                        )
                        tstore.observe(
                            "exec.job_wall_ns", done_ns, wall * 1e9,
                            pool=pool_label,
                        )
                    self._emit(
                        "job_finished", job=job_id, worker=handle.worker_id,
                        attempt=entry.attempt, wall_time_s=wall,
                        metrics={"fits": payload.get("fits")},
                    )
                elif kind == "fail":
                    _, job_id, error, _tb, wall, cache_traffic = message
                    self._count_cache(*cache_traffic)
                    entry = handle.queue.popleft()
                    if handle.queue:
                        handle.queue[0].head_since = monotonic()
                    fail_attempt(entry, error, wall, handle.worker_id)

            # Enforce per-job deadlines (head of each worker queue only —
            # queued jobs have not started, so their clocks have not either).
            now = monotonic()
            for handle in list(pool.alive):
                if not handle.queue:
                    continue
                head = handle.queue[0]
                deadline = head.deadline(self.timeout_s)
                if deadline is not None and now >= deadline:
                    wall = now - (head.started_at if head.started_at is not None
                                  else head.head_since)
                    self._emit(
                        "job_timeout", job=head.job.job_id, worker=handle.worker_id,
                        attempt=head.attempt, wall_time_s=wall,
                        detail=f"exceeded {self.timeout_s} s",
                    )
                    lose_worker(
                        handle, f"timed out after {self.timeout_s} s", kill=True
                    )
        return results

    def _finish(
        self,
        jobs: Sequence[SweepJob],
        results: dict[str, SweepJobResult],
        sweep_started: float,
    ) -> SweepReport:
        ordered = [results[job.job_id] for job in jobs if job.job_id in results]
        report = SweepReport(
            sweep=self.sweep_name,
            results=ordered,
            wall_time_s=perf_counter() - sweep_started,
            cache_stats=self._cache_stats,
        )
        self._emit(
            "sweep_completed",
            wall_time_s=report.wall_time_s,
            metrics={
                "jobs": len(report.results),
                "failed": len(report.failed),
                "cache_hits": report.cache_hits(),
                "cache_lookups": report.cache_lookups(),
            },
        )
        tracer = get_tracer()
        if tracer.enabled:
            for key, value in (
                ("jobs", len(report.results)),
                ("failed", len(report.failed)),
                ("cache_hits", report.cache_hits()),
                ("cache_lookups", report.cache_lookups()),
            ):
                self._sweep_span.set_attribute(key, value)
        hub = get_telemetry()
        if hub is not None:
            totals = hub.store("run")
            totals.counter_add("sweep.jobs_total", 0, len(report.results))
            totals.counter_add("sweep.jobs_failed", 0, len(report.failed))
        self._sweep_span.end()
        return report
