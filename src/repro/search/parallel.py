"""Search-restart sharding over the parallel sweep engine.

The seeded drivers in :mod:`repro.search.anneal` run their restarts
sequentially; each restart is an *independent* trajectory (its own
``SeedSequence(seed, spawn_key=(i,))`` stream, its own starting point), so
restarts are embarrassingly parallel.  :func:`run_search_sharded` farms
each global restart out as one :class:`SearchRestartJob` — a picklable
``restarts=1`` search with ``restart_offset=i`` and that restart's slice
of the evaluation budget — over a
:class:`~repro.exec.engine.ParallelSweepEngine`, then merges the shard
results deterministically:

- shard ``i`` walks the **bit-identical trajectory** restart ``i`` of a
  sequential run would walk (the explicit ``spawn_key`` addressing in
  :func:`~repro.search.anneal._restart_rngs` guarantees the stream;
  ``restart_offset`` keeps the frontier-anchored start on global
  restart 0 only);
- the merge is order-independent: shards are folded in restart order
  whatever order they finished in, the best state breaks cost ties by
  lowest restart index, and the merged trajectory re-bases each shard's
  improvement indices onto the cumulative evaluation count — so
  ``jobs=0`` (in-process serial shards) and ``jobs=N`` produce the same
  :meth:`~repro.search.anneal.SearchResult.digest`;
- one deliberate difference from a sequential ``run_search``: budget that
  a sequential restart leaves unspent (move generator stuck, greedy
  patience) rolls over to the next restart; sharded restarts are
  independent, so unspent budget is simply unspent.  Equal seeds still
  mean equal results *within* each mode.

Pass ``pool=`` to reuse a warm :class:`~repro.exec.pool.WorkerPool` across
many sharded searches (parameter studies over graphs/devices): the
restarts of every search stream through the same pre-imported workers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

from repro.dfg.graph import AlgorithmGraph
from repro.dfg.library import OperationLibrary
from repro.fabric.device import VirtexIIDevice, XC2V2000
from repro.reconfig.architectures import ReconfigArchitecture
from repro.search.anneal import SearchConfig, SearchResult, run_search
from repro.search.objective import CostEvaluator, CostWeights
from repro.search.space import SearchSpace

__all__ = ["SearchRestartJob", "run_search_sharded", "shard_configs", "merge_shard_results"]


@dataclass(frozen=True)
class SearchRestartJob:
    """One picklable search restart (a ``restarts=1`` driver run).

    Plugs into the generic job protocol of :func:`repro.exec.worker.run_job`
    (``job_id`` + ``execute``), so sharded searches inherit the sweep
    engine's warm pool, pull dispatch, retry and crash isolation for free.
    The worker rebuilds the space and a memoizing evaluator locally; with a
    shared ``cache_dir`` on the engine, evaluations are memoized across
    shards through the crash-safe disk tier.
    """

    job_id: str
    graph: AlgorithmGraph
    library: OperationLibrary
    device: VirtexIIDevice
    architecture: Optional[ReconfigArchitecture]
    method: str
    config: SearchConfig  #: restarts=1, restart_offset=<global index>
    max_regions: Optional[int] = None
    weights: CostWeights = CostWeights()
    #: Fault-injection hook honoured by :func:`repro.exec.worker.run_job`.
    fault: Optional[str] = None

    def execute(self, attempt: int = 1, cache: Any = None) -> dict[str, Any]:
        space = SearchSpace(
            self.graph, self.library, device=self.device, max_regions=self.max_regions
        )
        evaluator = CostEvaluator(
            space, architecture=self.architecture, weights=self.weights, cache=cache
        )
        result = run_search(space, evaluator, self.config, method=self.method)
        # SearchResult pickles cleanly (plain dataclasses of tuples), so the
        # merge works on real states — not a lossy JSON rendering.
        return {"job_id": self.job_id, "search_result": result}


def shard_configs(config: SearchConfig) -> list[SearchConfig]:
    """Split ``config`` into one ``restarts=1`` config per global restart.

    Budget is sliced exactly as the sequential drivers slice it
    (``budget * (i + 1) // restarts`` cumulative limits), so shard ``i``
    gets the same evaluation allowance sequential restart ``i`` starts
    with.
    """
    return [
        replace(
            config,
            restarts=1,
            restart_offset=config.restart_offset + i,
            budget=max(
                1,
                config.budget * (i + 1) // config.restarts
                - config.budget * i // config.restarts,
            ),
        )
        for i in range(config.restarts)
    ]


def merge_shard_results(
    shards: list[SearchResult], config: SearchConfig, method: str
) -> SearchResult:
    """Fold per-restart results into one, independent of completion order.

    ``shards`` must be in global restart order.  The best state is the
    lowest ``total_ns`` with ties broken by the earliest restart; the
    merged trajectory re-bases each shard's improvement indices onto the
    cumulative evaluation count and keeps only *global* improvements —
    exactly what a sequential run's best-so-far bookkeeping records.
    """
    if not shards:
        raise ValueError("cannot merge zero shard results")
    best = min(enumerate(shards), key=lambda pair: (pair[1].best_cost.total_ns, pair[0]))[1]
    trajectory: list[tuple[int, float]] = []
    best_so_far = float("inf")
    offset = 0
    for shard in shards:
        for index, total_ns in shard.trajectory:
            if total_ns < best_so_far:
                best_so_far = total_ns
                trajectory.append((offset + index, total_ns))
        offset += shard.evaluations
    return SearchResult(
        method=method,
        best_state=best.best_state,
        best_cost=best.best_cost,
        trajectory=trajectory,
        evaluations=sum(s.evaluations for s in shards),
        accepted=sum(s.accepted for s in shards),
        improved=len(trajectory),
        pruned=sum(s.pruned for s in shards),
        seed=config.seed,
        restarts=config.restarts,
    )


def run_search_sharded(
    graph: AlgorithmGraph,
    library: OperationLibrary,
    device: VirtexIIDevice = XC2V2000,
    architecture: Optional[ReconfigArchitecture] = None,
    method: str = "anneal",
    config: SearchConfig = SearchConfig(),
    max_regions: Optional[int] = None,
    weights: CostWeights = CostWeights(),
    jobs: int = 0,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    cache_dir: Optional[str] = None,
    pool=None,
) -> SearchResult:
    """Run a multi-restart search with one engine job per restart.

    ``jobs=0`` runs the shards serially in-process through the engine's
    serial path (the byte-level reference: its digest must equal any
    ``jobs=N`` run's).  A failed shard — crash, timeout, retries exhausted
    — raises: a silently dropped restart would change the digest.
    """
    from repro.exec.engine import ParallelSweepEngine

    shard_jobs = [
        SearchRestartJob(
            job_id=f"restart{cfg.restart_offset:03d}@{method}",
            graph=graph,
            library=library,
            device=device,
            architecture=architecture,
            method=method,
            config=cfg,
            max_regions=max_regions,
            weights=weights,
        )
        for cfg in shard_configs(config)
    ]
    engine = ParallelSweepEngine(
        jobs=jobs,
        timeout_s=timeout_s,
        retries=retries,
        cache_dir=cache_dir,
        sweep_name=f"search:{graph.name}:{method}",
        pool=pool,
    )
    try:
        report = engine.run(shard_jobs)
    finally:
        if pool is None:
            engine.close()
    if report.failed:
        detail = "; ".join(f"{r.job_id}: {r.error}" for r in report.failed)
        raise RuntimeError(
            f"search sharding failed for {len(report.failed)} restart(s): {detail}"
        )
    shards = [r.payload["search_result"] for r in report.results]
    return merge_shard_results(shards, config, method)
