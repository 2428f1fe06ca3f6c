"""Parallel execution engine for design-space sweeps.

The ``repro.exec`` subsystem turns the staged flow pipeline into a
multi-process workload: picklable :class:`~repro.exec.worker.SweepJob`
records are sharded across spawn workers by the
:class:`~repro.exec.engine.ParallelSweepEngine`, all sharing one on-disk
:class:`~repro.flows.pipeline.ArtifactCache` made safe for concurrency by
the primitives in :mod:`repro.exec.locks`.  Under a recording tracer the
engine narrates each lifecycle step as a ``sweep:<kind>`` row span, and
traced workers ship their spans — pipeline stage rows included — back to
the engine's tracer (see :mod:`repro.flows.observe`).

- :mod:`repro.exec.locks` — advisory file locks + atomic write-rename
  (imported by :mod:`repro.flows.pipeline`; no ``repro`` dependencies);
- :mod:`repro.exec.worker` — the worker process loop and the picklable job
  description;
- :mod:`repro.exec.pool` — the persistent :class:`WorkerPool` of warm,
  pre-imported worker processes, reusable across runs and engines;
- :mod:`repro.exec.engine` — the scheduler: pull-based dispatch with
  batched prefetch, per-job timeout, bounded retry with backoff, graceful
  degradation, deterministic result ordering.
"""

from repro.exec.locks import FileLock, atomic_write_bytes
from repro.exec.worker import SweepJob, run_job, resolve_entrypoint
from repro.exec.pool import WorkerPool, PoolWorker
from repro.exec.engine import SWEEP_EVENT_KINDS, ParallelSweepEngine, SweepJobResult, SweepReport

__all__ = [
    "FileLock",
    "atomic_write_bytes",
    "SWEEP_EVENT_KINDS",
    "SweepJob",
    "run_job",
    "resolve_entrypoint",
    "WorkerPool",
    "PoolWorker",
    "ParallelSweepEngine",
    "SweepJobResult",
    "SweepReport",
]
