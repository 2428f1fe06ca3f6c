"""Design-space exploration over devices and reconfiguration architectures.

Automates the question a platform architect asks before committing to a
part: for a given application, how do region area, partial-bitstream size,
reconfiguration latency and iteration period move across candidate FPGAs
and Fig. 2 manager/builder placements?
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.arch.boards import Board, sundance_board
from repro.dfg.graph import AlgorithmGraph
from repro.dfg.library import OperationLibrary
from repro.fabric.device import VirtexIIDevice, XC2V1000, XC2V2000, XC2V3000
from repro.fabric.floorplan import FloorplanError
from repro.flows.constraints import DynamicConstraints
from repro.flows.flow import DesignFlow, FlowResult
from repro.flows.pipeline import ArtifactCache
from repro.reconfig.architectures import ReconfigArchitecture, case_a_standalone, case_b_processor

__all__ = [
    "DesignPoint",
    "explore_design_space",
    "sweep_jobs_for_grid",
    "design_point_from_payload",
    "SearchReport",
    "search_multiregion",
]


@dataclass
class DesignPoint:
    """One (device, reconfiguration architecture) evaluation."""

    device: str
    architecture: str
    fits: bool
    error: Optional[str] = None
    region_area: dict[str, float] = field(default_factory=dict)
    bitstream_bytes: dict[str, int] = field(default_factory=dict)
    reconfig_latency_ns: dict[str, int] = field(default_factory=dict)
    clock_mhz: float = 0.0
    makespan_ns: int = 0
    flow_result: Optional[FlowResult] = None

    def render(self) -> str:
        if not self.fits:
            return f"{self.device:<10} {self.architecture:<20} DOES NOT FIT: {self.error}"
        regions = ", ".join(
            f"{r}={100 * a:.1f}%/{self.reconfig_latency_ns[r] / 1e6:.2f}ms"
            for r, a in sorted(self.region_area.items())
        )
        return (
            f"{self.device:<10} {self.architecture:<20} {regions} "
            f"clock={self.clock_mhz:.0f}MHz iter={self.makespan_ns / 1e3:.1f}us"
        )


@dataclass
class SearchReport:
    """Fixed-sweep frontier and searched optimum, side by side.

    ``fixed`` maps region count to the :class:`~repro.search.objective.CostBreakdown`
    of the deterministic fixed-sweep point (the paper's idiom: condition
    groups round-robin over ``k`` regions, spans packed against the right
    edge), ``searched`` is the driver's best.  ``gain`` < 1.0 means the
    search beat every fixed point; 1.0 means it matched the frontier.
    """

    graph: str
    device: str
    architecture: str
    method: str
    fixed: dict[int, Any] = field(default_factory=dict)
    searched: Any = None
    result: Any = None

    @property
    def best_fixed_cost_ns(self) -> float:
        return min(c.total_ns for c in self.fixed.values())

    @property
    def best_fixed_k(self) -> int:
        return min(self.fixed, key=lambda k: self.fixed[k].total_ns)

    @property
    def gain(self) -> float:
        return self.searched.total_ns / self.best_fixed_cost_ns

    def to_dict(self) -> dict:
        return {
            "graph": self.graph,
            "device": self.device,
            "architecture": self.architecture,
            "method": self.method,
            "fixed": {str(k): c.to_dict() for k, c in sorted(self.fixed.items())},
            "best_fixed_k": self.best_fixed_k,
            "best_fixed_cost_ns": self.best_fixed_cost_ns,
            "searched": self.searched.to_dict(),
            "gain": self.gain,
            "result": self.result.to_dict(),
        }

    def render(self) -> str:
        lines = [
            f"search report: {self.graph} on {self.device} / {self.architecture}",
            f"{'point':<14} {'total':>12} {'makespan':>12} {'reconfig':>12} {'feasible':>9}",
        ]
        for k in sorted(self.fixed):
            c = self.fixed[k]
            lines.append(
                f"fixed k={k:<6} {c.total_ns / 1e3:>10.1f}us {c.makespan_ns / 1e3:>10.1f}us "
                f"{c.reconfig_busy_ns / 1e3:>10.1f}us {str(c.feasible):>9}"
            )
        c = self.searched
        lines.append(
            f"{self.method:<14} {c.total_ns / 1e3:>10.1f}us {c.makespan_ns / 1e3:>10.1f}us "
            f"{c.reconfig_busy_ns / 1e3:>10.1f}us {str(c.feasible):>9}"
        )
        lines.append(
            f"gain vs best fixed (k={self.best_fixed_k}): {self.gain:.3f}x "
            f"over {self.result.evaluations} evaluation(s), digest {self.result.digest()}"
        )
        return "\n".join(lines)


def search_multiregion(
    graph: AlgorithmGraph,
    library: OperationLibrary,
    device: VirtexIIDevice = XC2V2000,
    architecture: Optional[ReconfigArchitecture] = None,
    method: str = "anneal",
    budget: int = 400,
    seed: int = 0,
    restarts: int = 2,
    max_regions: Optional[int] = None,
    cache: Optional[ArtifactCache] = None,
    jobs: int = 0,
    pool=None,
) -> SearchReport:
    """Co-optimize partitioning, region count and floorplan for ``graph``.

    Evaluates the deterministic fixed-sweep frontier (every region count
    ``1..max_regions``) first — those evaluations land in the same memo the
    search uses, so the frontier is free context, not extra budget — then
    runs the requested driver.  Because restart 0 starts *from* a frontier
    point, the searched optimum is never worse than the best fixed point
    given any budget >= 1.

    ``jobs>0`` (or a warm ``pool=``) shards the restarts over the parallel
    sweep engine via :func:`repro.search.run_search_sharded`; shard
    trajectories are bit-identical to the sequential restarts, though
    unspent per-restart budget no longer rolls over (see
    :mod:`repro.search.parallel`).
    """
    # Deferred so `repro.search` can import the pipeline (cache/fingerprints)
    # at module level without a cycle through this module.
    from repro.search import (
        CostEvaluator,
        SearchConfig,
        SearchSpace,
        run_search,
        run_search_sharded,
    )

    space = SearchSpace(graph, library, device=device, max_regions=max_regions)
    evaluator = CostEvaluator(
        space,
        architecture=architecture or case_a_standalone(),
        cache=cache,
    )
    fixed = {
        k: evaluator.evaluate(space.initial_state(k))
        for k in range(1, space.max_regions + 1)
    }
    config = SearchConfig(budget=budget, seed=seed, restarts=restarts)
    if jobs > 0 or pool is not None:
        result = run_search_sharded(
            graph,
            library,
            device=device,
            architecture=evaluator.architecture,
            method=method,
            config=config,
            max_regions=max_regions,
            jobs=jobs,
            pool=pool,
        )
    else:
        result = run_search(space, evaluator, config, method=method)
    # The search starts at initial_state() = the default-k frontier point,
    # so its best can only tie or beat that point; re-check against the
    # whole frontier and keep the better of the two.
    searched = result.best_cost
    if searched.total_ns > min(c.total_ns for c in fixed.values()):
        # Budget too small to re-reach the frontier: report the frontier
        # point as the searched best rather than pretending regression.
        best_k = min(fixed, key=lambda k: fixed[k].total_ns)
        searched = fixed[best_k]
        result.best_state = space.initial_state(best_k)
        result.best_cost = searched
    return SearchReport(
        graph=graph.name,
        device=device.name,
        architecture=evaluator.architecture.name,
        method=method,
        fixed=fixed,
        searched=searched,
        result=result,
    )


def sweep_jobs_for_grid(
    graph: AlgorithmGraph,
    library: OperationLibrary,
    devices: Sequence[VirtexIIDevice] = (XC2V1000, XC2V2000, XC2V3000),
    architectures: Sequence[ReconfigArchitecture] = (),
    dynamic_constraints: Optional[DynamicConstraints] = None,
    pins: Sequence[tuple[str, str]] = (),
    board_builder: str = "repro.arch.boards:sundance_board",
    prefetch: bool = True,
) -> list:
    """Picklable :class:`~repro.exec.worker.SweepJob` list for the grid.

    Job ids are ``<device>@<architecture>``, enumerated devices-major —
    the same order :func:`explore_design_space` evaluates serially, so the
    engine's submission-ordered results line up with the serial points.
    """
    from repro.exec.worker import SweepJob

    archs = list(architectures) or [case_a_standalone(), case_b_processor()]
    return [
        SweepJob(
            job_id=f"{device.name}@{arch.name}",
            graph=graph,
            library=library,
            device=device,
            architecture=arch,
            board_builder=board_builder,
            dynamic_constraints=dynamic_constraints,
            pins=tuple(pins),
            prefetch=prefetch,
        )
        for device in devices
        for arch in archs
    ]


def design_point_from_payload(result) -> DesignPoint:
    """Rebuild a :class:`DesignPoint` from one engine job result."""
    if not result.ok:
        device, _, architecture = result.job_id.partition("@")
        return DesignPoint(
            device=device,
            architecture=architecture,
            fits=False,
            error=f"job failed after {result.attempts} attempt(s): {result.error}",
        )
    payload: dict[str, Any] = result.payload
    if not payload["fits"]:
        return DesignPoint(
            device=payload["device"],
            architecture=payload["architecture"],
            fits=False,
            error=payload["error"],
        )
    return DesignPoint(
        device=payload["device"],
        architecture=payload["architecture"],
        fits=True,
        region_area=dict(payload["region_area"]),
        bitstream_bytes=dict(payload["bitstream_bytes"]),
        reconfig_latency_ns=dict(payload["reconfig_latency_ns"]),
        clock_mhz=payload["clock_mhz"],
        makespan_ns=payload["makespan_ns"],
    )


def _explore_parallel(
    graph, library, devices, architectures, dynamic_constraints, pins,
    jobs, timeout_s, retries, cache_dir, pool,
) -> list[DesignPoint]:
    from repro.exec.engine import ParallelSweepEngine

    sweep_jobs = sweep_jobs_for_grid(
        graph, library,
        devices=devices,
        architectures=architectures,
        dynamic_constraints=dynamic_constraints,
        pins=pins,
    )
    engine = ParallelSweepEngine(
        jobs=jobs,
        timeout_s=timeout_s,
        retries=retries,
        cache_dir=cache_dir,
        sweep_name=f"designspace:{graph.name}",
        pool=pool,
    )
    try:
        report = engine.run(sweep_jobs)
    finally:
        if pool is None:  # engine-owned workers have no further caller
            engine.close()
    return [design_point_from_payload(r) for r in report.results]


def explore_design_space(
    graph: AlgorithmGraph,
    library: OperationLibrary,
    devices: Sequence[VirtexIIDevice] = (XC2V1000, XC2V2000, XC2V3000),
    architectures: Sequence[ReconfigArchitecture] = (),
    board_factory: Callable[[VirtexIIDevice], Board] = lambda dev: sundance_board(device=dev),
    dynamic_constraints: Optional[DynamicConstraints] = None,
    configure_flow: Optional[Callable[[DesignFlow], None]] = None,
    pins: Sequence[tuple[str, str]] = (),
    keep_flow_results: bool = False,
    cache: Optional[ArtifactCache] = None,
    share_cache: bool = True,
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    cache_dir: Optional[str | Path] = None,
    pool=None,
) -> list[DesignPoint]:
    """Run the full flow at every (device, architecture) point.

    Points that do not fit (floorplanning fails) are reported, not raised.
    ``configure_flow`` may pin mappings or set deadlines per flow (serial
    only — it cannot cross a process boundary); ``pins`` is its picklable
    subset, ``(operation, operator)`` pairs applied to every flow in both
    modes.  ``keep_flow_results`` attaches the complete :class:`FlowResult`
    to each fitting point (memory-heavy for large sweeps).

    All points run through one shared content-addressed
    :class:`ArtifactCache` (pass ``cache=`` to reuse yours across sweeps, or
    ``share_cache=False`` to disable caching): stages whose fingerprinted
    inputs do not involve the swept dimensions — modelisation, first-pass
    adequation, VHDL generation when only the device changes — execute once
    for the whole sweep instead of once per point.  Under a recording tracer
    every stage of every point is a row span (see
    :mod:`repro.flows.observe`).

    ``jobs > 1`` delegates to the
    :class:`~repro.exec.engine.ParallelSweepEngine`: jobs are pulled by
    that many worker processes sharing one crash-safe disk cache
    (``cache_dir``, or a private in-process cache per worker when omitted),
    with per-job ``timeout_s`` and up to ``retries`` retries.  Pass
    ``pool=`` (a warm :class:`~repro.exec.pool.WorkerPool`) to skip the
    worker spawn + import cost entirely — the pool is borrowed for the
    sweep and left warm for the next caller; without it, this function
    spins up workers for this call only.  The parallel path needs
    picklable inputs, so ``configure_flow``, a custom ``board_factory``
    and ``keep_flow_results`` are rejected — use ``pins`` (and, for a
    custom board, an importable builder via :func:`sweep_jobs_for_grid` +
    the engine directly).
    """
    if jobs > 1 or pool is not None:
        if configure_flow is not None:
            raise ValueError(
                "configure_flow cannot cross a process boundary; use pins=[...] "
                "or drive sweep_jobs_for_grid()/ParallelSweepEngine directly"
            )
        if keep_flow_results:
            raise ValueError("keep_flow_results is not supported with jobs > 1")
        return _explore_parallel(
            graph, library, devices, architectures, dynamic_constraints, pins,
            jobs, timeout_s, retries, cache_dir, pool,
        )
    archs = list(architectures) or [case_a_standalone(), case_b_processor()]
    if cache is None and cache_dir is not None:
        cache = ArtifactCache(disk_dir=cache_dir)
    shared_cache = cache if cache is not None else (ArtifactCache() if share_cache else None)
    points: list[DesignPoint] = []
    for device in devices:
        for arch in archs:
            board = board_factory(device)
            flow = DesignFlow(
                graph=graph,
                board=board,
                library=library,
                dynamic_constraints=dynamic_constraints,
                reconfig_architecture=arch,
                cache=shared_cache,
            )
            for operation, operator in pins:
                flow.mapping.pin(operation, operator)
            if configure_flow is not None:
                configure_flow(flow)
            try:
                result = flow.run()
            except FloorplanError as err:
                points.append(
                    DesignPoint(device=device.name, architecture=arch.name, fits=False, error=str(err))
                )
                continue
            regions = result.modular.floorplan.placements
            points.append(
                DesignPoint(
                    device=device.name,
                    architecture=arch.name,
                    fits=True,
                    region_area={
                        r: result.modular.region_area_fraction(r) for r in regions
                    },
                    bitstream_bytes={
                        r: result.modular.floorplan.partial_bitstream_bytes(r) for r in regions
                    },
                    reconfig_latency_ns=dict(result.modular.reconfig_latency_ns),
                    clock_mhz=result.modular.par_report.clock_mhz,
                    makespan_ns=result.makespan_ns,
                    flow_result=result if keep_flow_results else None,
                )
            )
    return points
