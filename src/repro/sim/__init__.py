"""Discrete-event simulation kernel.

A small, deterministic discrete-event simulator in the style of SimPy, used
to execute the synchronized executives produced by the AAA adequation step
and to model runtime reconfiguration latency.  Its only dependency inside the
package is :mod:`repro.obs.tracer`: a :class:`Trace` reads back as
``clock="sim"`` spans of the unified span model.

Time is integral (nanoseconds by convention, see :mod:`repro.sim.units`), so
simulations are exactly reproducible across platforms.
"""

from repro.sim.kernel import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.channels import Channel, Mailbox, Resource, Semaphore, Signal
from repro.sim.trace import Trace
from repro.sim.metrics import interval_union
from repro.sim import units

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
    "Channel",
    "Mailbox",
    "Resource",
    "Semaphore",
    "Signal",
    "Trace",
    "interval_union",
    "units",
]
