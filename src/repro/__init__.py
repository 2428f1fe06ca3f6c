"""repro — reproduction of Berthelot, Nouvel & Houzet (IPDPS 2006).

"Partial and Dynamic reconfiguration of FPGAs: a top down design methodology
for an automatic implementation."

The package implements, in pure Python, the complete top-down design flow the
paper describes, together with executable models of every hardware substrate
the paper relies on:

- :mod:`repro.dfg` — algorithm data-flow graphs (operations, conditionals).
- :mod:`repro.arch` — architecture graphs (operators, media, devices, boards).
- :mod:`repro.aaa` — AAA adequation: mapping + scheduling heuristics.
- :mod:`repro.executive` — synchronized executive macro-code and interpreter.
- :mod:`repro.codegen` — VHDL generation for static and dynamic parts.
- :mod:`repro.fabric` — Virtex-II fabric model, modular floorplanning,
  partial bitstreams.
- :mod:`repro.reconfig` — runtime reconfiguration manager, port protocols,
  configuration prefetching.
- :mod:`repro.mccdma` — MC-CDMA transmitter case study (signal processing).
- :mod:`repro.sim` — discrete-event simulation kernel.
- :mod:`repro.flows` — end-to-end flow orchestration and reporting.

Quickstart::

    from repro.flows import DesignFlow
    from repro.mccdma.casestudy import build_mccdma_design

    flow = DesignFlow.from_design(build_mccdma_design())
    result = flow.run()
    print(result.report())

Library code never writes to stdout.  A run narrates itself as spans on
the ambient tracer — install a recording one with
``repro.obs.use_tracer(repro.obs.Tracer())`` and read its rows with
:func:`repro.flows.render_profile` or :func:`repro.flows.flow_rows`; the
``repro`` logging channels carry warnings only and are silent by default.
"""

import logging as _logging

__version__ = "1.0.0"

__all__ = ["__version__"]

# Standard library etiquette: no output unless the application opts in.
_logging.getLogger("repro").addHandler(_logging.NullHandler())
