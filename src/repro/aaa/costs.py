"""Duration and cost model used by the adequation heuristics."""

from __future__ import annotations

from typing import Optional

from repro.arch.graph import ArchitectureGraph, Route
from repro.arch.operator import Operator, OperatorKind
from repro.dfg.graph import AlgorithmGraph, Edge
from repro.dfg.library import OperationLibrary
from repro.dfg.operations import Operation

__all__ = ["CostError", "CostModel"]


class CostError(ValueError):
    """Raised when a cost is requested for an infeasible mapping."""


class CostModel:
    """Durations of computations, communications and reconfigurations.

    Computation durations come from the operation library (cycles) scaled by
    the operator clock.  Communication durations come from the media along
    the route.  Reconfiguration durations are provided per dynamic operator
    (the design flow computes them from the partial-bitstream size and the
    configuration-port bandwidth; a default is used before floorplanning).
    """

    #: Pre-floorplan estimate of one partial reconfiguration, in ns (≈4 ms,
    #: the paper's measured value for the 8 % module).
    DEFAULT_RECONFIG_NS = 4_000_000

    def __init__(
        self,
        graph: AlgorithmGraph,
        architecture: ArchitectureGraph,
        library: OperationLibrary,
        reconfig_ns: Optional[dict[str, int]] = None,
    ):
        self.graph = graph
        self.architecture = architecture
        self.library = library
        #: region name -> reconfiguration latency (ns)
        self.reconfig_ns = dict(reconfig_ns or {})
        self._route_cache: dict[tuple[str, str], Route] = {}
        # All memo keys are *names*: costs must not distinguish resident
        # objects from cache-round-tripped equal copies.
        self._duration_cache: dict[tuple[str, str], int] = {}
        self._best_duration_cache: dict[str, int] = {}
        self._candidates_cache: dict[str, tuple[Operator, ...]] = {}
        #: Scheduling tables that read no latency (tail ranks, the successor
        #: map, hop lists), filled by the schedulers on first use.  Like the
        #: memos above they assume a frozen graph and architecture.
        self.tables: dict[str, object] = {}

    def __getstate__(self) -> dict:
        # Memoized lookups are derived state: keep them out of pickled
        # artifacts so the cached bytes do not depend on which queries a
        # particular run happened to make.
        state = self.__dict__.copy()
        del state["tables"]
        state["_route_cache"] = {}
        state["_duration_cache"] = {}
        state["_best_duration_cache"] = {}
        state["_candidates_cache"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.tables = {}

    def with_latencies(self, reconfig_ns: Optional[dict[str, int]]) -> "CostModel":
        """This model with other reconfiguration latencies.

        No memo or scheduling table reads a latency, so the new model shares
        all of them with this one: a caller that prices many latency sets on
        one graph and architecture builds them once.
        """
        model = object.__new__(type(self))
        model.__dict__.update(self.__dict__)
        model.reconfig_ns = dict(reconfig_ns or {})
        return model

    # -- mapping feasibility --------------------------------------------------

    def can_map(self, op: Operation, operator: Operator) -> bool:
        """Feasibility of running ``op`` on ``operator``.

        Dynamic FPGA operators host only *conditioned* operations: an
        unconditioned operation would occupy the region forever, defeating
        reconfiguration (the paper maps exactly the conditioned modulation
        alternatives to Op_Dyn).
        """
        if not self.library.supports(op.kind, operator.operator_class):
            return False
        if operator.kind is OperatorKind.FPGA_DYNAMIC and not op.is_conditioned:
            return False
        return True

    def candidates(self, op: Operation) -> tuple[Operator, ...]:
        """All operators that can host ``op`` (memoized per operation name)."""
        cached = self._candidates_cache.get(op.name)
        if cached is None:
            cached = tuple(p for p in self.architecture.operators if self.can_map(op, p))
            self._candidates_cache[op.name] = cached
        return cached

    # -- durations ----------------------------------------------------------------

    def duration(self, op: Operation, operator: Operator) -> int:
        """Execution time of ``op`` on ``operator`` in ns (memoized)."""
        key = (op.name, operator.name)
        cached = self._duration_cache.get(key)
        if cached is not None:
            return cached
        if not self.can_map(op, operator):
            raise CostError(f"operation {op.name!r} cannot run on operator {operator.name!r}")
        cycles = self.library.cycles(op.kind, operator.operator_class)
        value = operator.duration_ns(cycles)
        self._duration_cache[key] = value
        return value

    def best_duration(self, op: Operation) -> int:
        """The fastest feasible execution time of ``op`` (used for ranks)."""
        cached = self._best_duration_cache.get(op.name)
        if cached is not None:
            return cached
        durations = [self.duration(op, p) for p in self.candidates(op)]
        if not durations:
            raise CostError(f"operation {op.name!r} has no feasible operator")
        value = min(durations)
        self._best_duration_cache[op.name] = value
        return value

    def route(self, src: Operator, dst: Operator) -> Route:
        key = (src.name, dst.name)
        if key not in self._route_cache:
            self._route_cache[key] = self.architecture.route(src, dst)
        return self._route_cache[key]

    def comm_duration(self, edge: Edge, src_op: Operator, dst_op: Operator) -> int:
        """Transfer time for ``edge`` between two placed operations, in ns."""
        route = self.route(src_op, dst_op)
        return route.transfer_ns(edge.size_bytes)

    # -- reconfiguration --------------------------------------------------------------

    def reconfiguration_ns(self, operator: Operator) -> int:
        """Latency of swapping the module configured on a dynamic operator."""
        if not operator.is_reconfigurable:
            raise CostError(f"operator {operator.name!r} is not reconfigurable")
        assert operator.region is not None
        return self.reconfig_ns.get(operator.region, self.DEFAULT_RECONFIG_NS)

    def set_reconfiguration_ns(self, region: str, latency_ns: int) -> None:
        """Install a floorplan-derived latency for ``region``."""
        if latency_ns < 0:
            raise CostError("reconfiguration latency must be >= 0")
        self.reconfig_ns[region] = latency_ns
