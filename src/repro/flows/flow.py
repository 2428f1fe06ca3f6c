"""The complete top-down design flow (Fig. 3).

``DesignFlow.run()`` executes every stage of the paper's methodology:

1. **Modelisation** — validate the algorithm graph, architecture graph and
   the dynamic-module constraints file;
2. **Adequation** — SynDEx-style mapping/scheduling (reconfiguration-aware),
   first with the pre-floorplan latency estimate;
3. **VHDL generation** — static part, dynamic variants, bus macros, UCF;
4. **Modular Design back-end** — synthesis estimation, floorplanning, PAR
   checks, partial bitstreams, measured reconfiguration latency;
5. **Adequation refinement** — re-run the scheduler with the measured
   latencies (the feedback arrow of Fig. 3);
6. **Executive generation** — the synchronized macro-code, ready for the
   dynamic-verification simulation (:mod:`repro.flows.runtime`).

Since the staged-pipeline refactor this class is a thin façade over
:class:`~repro.flows.pipeline.FlowPipeline`: each stage is content-addressed
by a fingerprint of its inputs (chained through its upstream stages), so a
flow given a shared :class:`~repro.flows.pipeline.ArtifactCache` re-executes
only the stages whose inputs actually changed, and every stage leaves one
:class:`~repro.flows.observe.FlowEvent` row on ``FlowResult.events`` (and a
``stage:`` span on the ambient tracer, when one records).  The public API is
unchanged — ``DesignFlow(...).run() -> FlowResult``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Type

from repro.aaa.adequation import AdequationResult, adequate
from repro.aaa.costs import CostModel
from repro.aaa.mapping import MappingConstraints
from repro.aaa.recon_aware import ReconfigAwareScheduler
from repro.aaa.scheduler import ListSchedulerBase
from repro.arch.boards import Board
from repro.arch.operator import OperatorKind
from repro.codegen.generator import GeneratedDesign, generate_design
from repro.dfg.graph import AlgorithmGraph
from repro.dfg.library import OperationLibrary
from repro.dfg.validate import validate_graph
from repro.executive.generator import generate_executive
from repro.executive.macrocode import ExecutiveProgram
from repro.flows.constraints import DynamicConstraints
from repro.flows.modular import ModularDesignResult, run_modular_backend
from repro.flows.observe import FlowEvent
from repro.flows.pipeline import (
    ArtifactCache,
    FlowPipeline,
    Stage,
    fingerprint,
    fingerprint_architecture,
    fingerprint_device,
    fingerprint_dynamic_constraints,
    fingerprint_graph,
    fingerprint_library,
    fingerprint_mapping,
    fingerprint_reconfig_architecture,
    fingerprint_scheduler,
)
from repro.reconfig.architectures import ReconfigArchitecture, case_a_standalone

__all__ = ["TimingConstraintError", "DesignFlow", "FlowResult", "STAGE_NAMES"]

#: The six Fig. 3 stages, in execution order.
STAGE_NAMES = (
    "modelisation",
    "adequation",
    "vhdl_generation",
    "modular_backend",
    "adequation_refine",
    "executive",
)


class TimingConstraintError(RuntimeError):
    """The adequation could not satisfy the iteration deadline.

    AAA "aims at finding the best matching between an algorithm and an
    architecture while satisfying time constraints" — when the best schedule
    still misses the deadline, the flow fails loudly with both numbers."""

    def __init__(self, makespan_ns: int, deadline_ns: int):
        self.makespan_ns = makespan_ns
        self.deadline_ns = deadline_ns
        super().__init__(
            f"iteration period {makespan_ns} ns exceeds the deadline {deadline_ns} ns "
            f"({makespan_ns / deadline_ns:.2f}x)"
        )


@dataclass
class FlowResult:
    """Artefacts of one complete flow run."""

    graph: AlgorithmGraph
    board: Board
    library: OperationLibrary
    adequation: AdequationResult
    generated: GeneratedDesign
    modular: ModularDesignResult
    executive: ExecutiveProgram
    first_pass_makespan_ns: int
    dynamic_constraints: Optional[DynamicConstraints] = None
    iteration_deadline_ns: Optional[int] = None
    #: Per-stage pipeline events of the run that produced this result.
    events: list[FlowEvent] = field(default_factory=list)

    @property
    def meets_deadline(self) -> bool:
        """True when no deadline was set or the final makespan honours it."""
        return self.iteration_deadline_ns is None or self.makespan_ns <= self.iteration_deadline_ns

    def startup_modules(self) -> dict[str, str]:
        """region -> operation preloaded at power-up (``loading = startup``)."""
        out: dict[str, str] = {}
        if self.dynamic_constraints is not None:
            for module in self.dynamic_constraints.modules.values():
                if module.loading == "startup":
                    out[module.region] = module.operation
        return out

    @property
    def makespan_ns(self) -> int:
        return self.adequation.makespan_ns

    def region_latency_ns(self, region: str) -> int:
        return self.modular.reconfig_latency_ns[region]

    def report(self) -> str:
        lines = [
            f"=== Design flow report: {self.graph.name} on {self.board.name} ===",
            f"operations: {len(self.graph.operations)}, edges: {len(self.graph.edges)}",
            f"first-pass makespan : {self.first_pass_makespan_ns} ns",
            f"final makespan      : {self.makespan_ns} ns "
            f"({self.adequation.throughput_iterations_per_s():.1f} iterations/s)",
            *(
                [
                    f"time constraint     : {self.iteration_deadline_ns} ns — "
                    + ("satisfied" if self.meets_deadline else "VIOLATED")
                ]
                if self.iteration_deadline_ns is not None
                else []
            ),
            self.modular.summary(),
            f"generated VHDL files: {', '.join(self.generated.file_names())}",
        ]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-safe summary of the run (the CLI's ``flow --json`` payload).

        Carries everything external tooling usually scrapes from the text
        report — makespans, per-region geometry/latency, the generated file
        list — plus the per-stage pipeline events."""
        regions = sorted(self.modular.floorplan.placements)
        return {
            "graph": self.graph.name,
            "board": self.board.name,
            "device": self.modular.floorplan.device.name,
            "operations": len(self.graph.operations),
            "edges": len(self.graph.edges),
            "first_pass_makespan_ns": self.first_pass_makespan_ns,
            "makespan_ns": self.makespan_ns,
            "throughput_iterations_per_s": self.adequation.throughput_iterations_per_s(),
            "iteration_deadline_ns": self.iteration_deadline_ns,
            "meets_deadline": self.meets_deadline,
            "clock_mhz": self.modular.par_report.clock_mhz,
            "par_ok": self.modular.par_report.ok,
            "reconfig_architecture": self.modular.reconfig_architecture.name,
            "regions": {
                r: {
                    "area_fraction": self.modular.region_area_fraction(r),
                    "partial_bitstream_bytes": self.modular.floorplan.partial_bitstream_bytes(r),
                    "reconfig_latency_ns": self.modular.reconfig_latency_ns.get(r),
                }
                for r in regions
            },
            "startup_modules": self.startup_modules(),
            "generated_files": self.generated.file_names(),
            "executive_operators": sorted(self.executive.operator_code),
            "stages": [event.to_dict() for event in self.events],
        }


@dataclass
class DesignFlow:
    """Configurable driver for the whole methodology."""

    graph: AlgorithmGraph
    board: Board
    library: OperationLibrary
    mapping: MappingConstraints = field(default_factory=MappingConstraints)
    dynamic_constraints: Optional[DynamicConstraints] = None
    scheduler: Type[ListSchedulerBase] = ReconfigAwareScheduler
    reconfig_architecture: ReconfigArchitecture = field(default_factory=case_a_standalone)
    prefetch: bool = True
    #: Optional AAA time constraint on the iteration period.
    iteration_deadline_ns: Optional[int] = None
    #: When True (default), a violated deadline raises TimingConstraintError.
    strict_deadline: bool = True
    #: Optional content-addressed artefact cache; share one across flows to
    #: skip stages whose fingerprinted inputs are unchanged.  The deadline
    #: fields are deliberately not part of any fingerprint: they gate the
    #: result, they do not change the artefacts.
    cache: Optional[ArtifactCache] = None

    @classmethod
    def from_design(cls, design, **overrides) -> "DesignFlow":
        """Build from a :class:`~repro.mccdma.casestudy.CaseStudyDesign`."""
        return cls(graph=design.graph, board=design.board, library=design.library, **overrides)

    # -- constraint plumbing -----------------------------------------------------

    def _apply_dynamic_constraints(self) -> None:
        """Pin each declared dynamic module onto its region's operator."""
        if self.dynamic_constraints is None:
            return
        self.dynamic_constraints.validate_against(self.graph)
        by_region = {
            op.region: op for op in self.board.architecture.dynamic_operators() if op.region
        }
        for module in self.dynamic_constraints.modules.values():
            operator = by_region.get(module.region)
            if operator is None:
                from repro.flows.constraints import ConstraintsError

                raise ConstraintsError(
                    f"module {module.name!r}: region {module.region!r} not present on board "
                    f"{self.board.name!r}"
                )
            self.mapping.pin(module.operation, operator.name)

    # -- the staged pipeline ---------------------------------------------------------

    def _scheduler_kwargs(self) -> dict:
        if self.scheduler is ReconfigAwareScheduler:
            return {"prefetch": self.prefetch}
        return {}

    def build_pipeline(self) -> FlowPipeline:
        """The six Fig. 3 stages wired through the cache.

        Call :meth:`run` unless you need stage-level control.  Dynamic
        constraints must already be applied to ``self.mapping`` (``run``
        does this) so the adequation fingerprint sees the effective pins.
        """
        graph, board, library = self.graph, self.board, self.library
        scheduler_kwargs = self._scheduler_kwargs()
        device = self._fpga_device()
        # The device-keyed stages (modular back-end) get the real device;
        # the device-independent stages schedule against a neutral copy so
        # their cached artifacts are pure functions of their cache keys.
        sched_arch = board.architecture.device_neutral()
        # One cost model for both adequation passes: the refine pass derives
        # its model with the measured latencies and reuses the durations,
        # routes and scheduling tables the first pass built (a first pass
        # served from the cache leaves them for the refine pass to build).
        costs = CostModel(graph, sched_arch, library)

        fp_graph = fingerprint_graph(graph)
        fp_arch = fingerprint_architecture(board.architecture)
        fp_lib = fingerprint_library(library)
        # The library is a modelisation input too: validate_graph() checks
        # every operation kind against it.
        fp_model = fingerprint(
            "modelisation",
            fp_graph,
            fp_arch,
            fp_lib,
            fingerprint_dynamic_constraints(self.dynamic_constraints),
            fingerprint_mapping(self.mapping),
        )
        fp_sched = fingerprint_scheduler(self.scheduler, scheduler_kwargs)
        fp_adeq = fingerprint("adequation", fp_model, fp_lib, fp_sched)
        fp_vhdl = fingerprint("vhdl_generation", fp_adeq)
        fp_modular = fingerprint(
            "modular_backend",
            fp_vhdl,
            fp_lib,
            fingerprint_device(device),
            fingerprint_reconfig_architecture(self.reconfig_architecture),
        )

        def run_modelisation(_: Mapping[str, Any]) -> dict:
            validate_graph(graph, library)
            board.architecture.validate()
            if self.dynamic_constraints is not None:
                self.dynamic_constraints.validate_against(graph)
            return {
                "operations": len(graph.operations),
                "edges": len(graph.edges),
                "pinned": len(self.mapping),
            }

        def run_adequation(_: Mapping[str, Any]) -> AdequationResult:
            return adequate(
                graph,
                sched_arch,
                library,
                constraints=self.mapping,
                scheduler=self.scheduler,
                validate=False,
                costs=costs,
                **scheduler_kwargs,
            )

        def run_vhdl(artifacts: Mapping[str, Any]) -> GeneratedDesign:
            first: AdequationResult = artifacts["adequation"]
            return generate_design(graph, first.schedule, sched_arch)

        def run_modular(artifacts: Mapping[str, Any]) -> ModularDesignResult:
            return run_modular_backend(
                graph,
                artifacts["vhdl_generation"],
                library,
                device,
                reconfig_architecture=self.reconfig_architecture,
            )

        def refine_key(artifacts: Mapping[str, Any]) -> str:
            # Content-addressed on the *measured latencies*, not the whole
            # back-end key: two design points whose regions reconfigure in
            # the same time share the refined schedule.
            modular: ModularDesignResult = artifacts["modular_backend"]
            return fingerprint(
                "adequation_refine", fp_adeq, dict(modular.reconfig_latency_ns)
            )

        def run_refine(artifacts: Mapping[str, Any]) -> AdequationResult:
            modular: ModularDesignResult = artifacts["modular_backend"]
            return adequate(
                graph,
                sched_arch,
                library,
                constraints=self.mapping,
                scheduler=self.scheduler,
                validate=False,
                costs=costs.with_latencies(modular.reconfig_latency_ns),
                **scheduler_kwargs,
            )

        def run_executive(artifacts: Mapping[str, Any]) -> ExecutiveProgram:
            refined: AdequationResult = artifacts["adequation_refine"]
            return generate_executive(graph, refined.schedule)

        def adequation_metrics(a: AdequationResult) -> dict:
            # Makespan plus the scheduler's placement-evaluation accounting
            # (requested / evaluated / memo hits / commits), so sweeps and
            # ``--profile`` report how much work the adequation actually did.
            return {"makespan_ns": a.makespan_ns, **a.scheduler_stats}

        stages = [
            Stage("modelisation", lambda _: fp_model, run_modelisation, dict),
            Stage(
                "adequation",
                lambda _: fp_adeq,
                run_adequation,
                adequation_metrics,
            ),
            Stage(
                "vhdl_generation",
                lambda _: fp_vhdl,
                run_vhdl,
                lambda g: {"files": len(g.files)},
            ),
            Stage(
                "modular_backend",
                lambda _: fp_modular,
                run_modular,
                lambda m: {
                    "clock_mhz": m.par_report.clock_mhz,
                    "regions": len(m.floorplan.placements),
                },
            ),
            Stage(
                "adequation_refine",
                refine_key,
                run_refine,
                adequation_metrics,
            ),
            Stage(
                "executive",
                lambda artifacts: fingerprint("executive", refine_key(artifacts)),
                run_executive,
                lambda p: {"operators": len(p.operator_code)},
            ),
        ]
        return FlowPipeline(
            stages,
            cache=self.cache,
            flow_name=f"{graph.name}@{board.name}",
        )

    # -- the flow --------------------------------------------------------------------

    def run(self) -> FlowResult:
        self._apply_dynamic_constraints()
        pipeline = self.build_pipeline()
        artifacts = pipeline.run()

        refined: AdequationResult = artifacts["adequation_refine"]
        if (
            self.iteration_deadline_ns is not None
            and self.strict_deadline
            and refined.makespan_ns > self.iteration_deadline_ns
        ):
            raise TimingConstraintError(refined.makespan_ns, self.iteration_deadline_ns)

        first: AdequationResult = artifacts["adequation"]
        return FlowResult(
            graph=self.graph,
            board=self.board,
            library=self.library,
            adequation=refined,
            generated=artifacts["vhdl_generation"],
            modular=artifacts["modular_backend"],
            executive=artifacts["executive"],
            first_pass_makespan_ns=first.makespan_ns,
            dynamic_constraints=self.dynamic_constraints,
            iteration_deadline_ns=self.iteration_deadline_ns,
            events=list(pipeline.events),
        )

    def _fpga_device(self):
        for operator in self.board.architecture.operators:
            if operator.kind in (OperatorKind.FPGA_STATIC, OperatorKind.FPGA_DYNAMIC):
                return self.board.fpga_device_of(operator.name)
        raise ValueError(f"board {self.board.name!r} has no FPGA operator")
