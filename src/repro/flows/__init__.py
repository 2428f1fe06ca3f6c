"""Top-down flow orchestration (the paper's Fig. 3).

Modelisation (graphs + constraints) → adequation (SynDEx) → VHDL +
constraints-file generation → Modular Design back-end (floorplan, PAR,
bitstreams) → dynamic verification (executive simulation with the runtime
reconfiguration manager).

- :mod:`repro.flows.constraints` — the dynamic-module constraints file
  (loading, unloading, area sharing, exclusion),
- :mod:`repro.flows.modular` — the Modular-Design back-end driver,
- :mod:`repro.flows.pipeline` — staged pipeline with content-addressed
  artefact caching (fingerprints, :class:`ArtifactCache`, :class:`Stage`,
  :class:`FlowPipeline`),
- :mod:`repro.flows.observe` — narration rows (:class:`FlowEvent`) rebuilt
  from the spans of one recording, and the ``--profile`` table over them,
- :mod:`repro.flows.flow` — the complete design flow (a façade over the
  pipeline),
- :mod:`repro.flows.runtime` — runtime system simulation,
- :mod:`repro.flows.report` — textual reports (Table 1 regeneration).
"""

from repro.flows.constraints import (
    ConstraintsError,
    DynamicConstraints,
    ModuleConstraint,
    parse_constraints,
)
from repro.flows.modular import ModularDesignResult, run_modular_backend
from repro.flows.observe import FlowEvent, flow_rows, render_profile
from repro.flows.pipeline import ArtifactCache, CacheStats, FlowPipeline, Stage, fingerprint
from repro.flows.flow import STAGE_NAMES, DesignFlow, FlowResult, TimingConstraintError
from repro.flows.runtime import RuntimeResult, SystemSimulation
from repro.flows.report import table1_report
from repro.flows.designspace import (
    DesignPoint,
    SearchReport,
    design_point_from_payload,
    explore_design_space,
    search_multiregion,
    sweep_jobs_for_grid,
)

__all__ = [
    "ConstraintsError",
    "DynamicConstraints",
    "ModuleConstraint",
    "parse_constraints",
    "ModularDesignResult",
    "run_modular_backend",
    "FlowEvent",
    "flow_rows",
    "render_profile",
    "ArtifactCache",
    "CacheStats",
    "FlowPipeline",
    "Stage",
    "fingerprint",
    "STAGE_NAMES",
    "DesignFlow",
    "FlowResult",
    "TimingConstraintError",
    "RuntimeResult",
    "SystemSimulation",
    "table1_report",
    "DesignPoint",
    "SearchReport",
    "search_multiregion",
    "design_point_from_payload",
    "explore_design_space",
    "sweep_jobs_for_grid",
]
