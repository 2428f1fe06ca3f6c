"""User-facing adequation entry point."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Type

from repro.aaa.costs import CostModel
from repro.aaa.mapping import MappingConstraints
from repro.aaa.recon_aware import ReconfigAwareScheduler
from repro.aaa.schedule import Schedule
from repro.aaa.scheduler import ListSchedulerBase
from repro.arch.graph import ArchitectureGraph
from repro.dfg.graph import AlgorithmGraph
from repro.dfg.library import OperationLibrary
from repro.dfg.validate import validate_graph

__all__ = ["AdequationResult", "adequate"]


@dataclass
class AdequationResult:
    """Schedule plus the models it was computed against."""

    schedule: Schedule
    costs: CostModel
    scheduler_name: str
    #: Placement-evaluation accounting of the run that produced the
    #: schedule (see :class:`repro.aaa.scheduler.SchedulerStats`); empty for
    #: results constructed by hand.
    scheduler_stats: dict = field(default_factory=dict)

    @property
    def makespan_ns(self) -> int:
        # Schedule.makespan() reads the maintained end frontier — O(1) — so
        # report()/iteration_period_ns/throughput can call it freely instead
        # of rebuilding three end-lists per call.
        return self.schedule.makespan()

    @property
    def iteration_period_ns(self) -> int:
        """The synchronized executive repeats the schedule back to back, so
        the steady-state iteration period equals the makespan."""
        return self.makespan_ns

    def throughput_iterations_per_s(self) -> float:
        period = self.iteration_period_ns
        return 1e9 / period if period else float("inf")

    def report(self) -> str:
        lines = [
            f"Adequation by {self.scheduler_name}: makespan {self.makespan_ns} ns "
            f"({self.throughput_iterations_per_s():.1f} iterations/s)",
            self.schedule.table(),
        ]
        return "\n".join(lines)


def adequate(
    graph: AlgorithmGraph,
    architecture: ArchitectureGraph,
    library: OperationLibrary,
    constraints: Optional[MappingConstraints] = None,
    scheduler: Type[ListSchedulerBase] = ReconfigAwareScheduler,
    reconfig_ns: Optional[dict[str, int]] = None,
    validate: bool = True,
    costs: Optional[CostModel] = None,
    **scheduler_kwargs,
) -> AdequationResult:
    """Run the full adequation: validate, schedule, check the result.

    ``scheduler`` selects the heuristic (default: the reconfiguration-aware
    extension); ``reconfig_ns`` installs per-region reconfiguration
    latencies (from the floorplan) into the cost model.  A caller that
    schedules one graph many times hands in its own ``costs`` (latencies
    included, see :meth:`CostModel.with_latencies`) instead, so the memos
    and scheduling tables outlive the call.
    """
    if validate:
        validate_graph(graph, library)
        architecture.validate()
    if costs is None:
        costs = CostModel(graph, architecture, library, reconfig_ns=reconfig_ns)
    elif reconfig_ns is not None or (costs.graph, costs.architecture, costs.library) != (
        graph, architecture, library
    ):
        raise ValueError("costs must model graph, architecture and library, and bring its latencies")
    sched_obj = scheduler(costs, constraints, **scheduler_kwargs)
    schedule = sched_obj.run()
    schedule.validate(graph, architecture)
    return AdequationResult(
        schedule=schedule,
        costs=costs,
        scheduler_name=type(sched_obj).__name__,
        scheduler_stats=sched_obj.stats.to_dict(),
    )
