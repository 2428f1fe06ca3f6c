"""Fleet-scale runtime: boards, traffic, the policy zoo, the fleet driver.

The paper validates one platform at a time; a deployed base station runs
*fleets* of them.  This package multiplexes M independent reconfigurable
boards onto one deterministic event kernel:

- :mod:`repro.runtime.board` — the :class:`Board` abstraction (store +
  protocol builder + configuration manager + optional executive) taking the
  simulator as a shared handle,
- :mod:`repro.runtime.traffic` — seeded request-stream generators (Poisson
  bursts, diurnal swings, adversarial thrash), run for a whole fleet in
  lockstep into one array :class:`ScheduleSet`,
- :mod:`repro.runtime.policies` — the named policy registry unifying
  prefetch strategies and multi-slot eviction bundles,
- :mod:`repro.runtime.fleet` — the fleet driver and the per-policy
  hit-rate / stall-latency frontier, with an ``engine`` selector,
- :mod:`repro.runtime.fast` — the batched array-state engine: a core for
  every registered policy bundle and slot count, reproducing the kernel's
  outcomes exactly (digest parity) at vector speed, with the kernel as its
  oracle and its replay for the boards no core can hold.
"""

from repro.runtime.board import Board
from repro.runtime.fast import FastRunStats, simulate_fast_fleet, vector_mode
from repro.runtime.fleet import (
    ENGINES,
    FleetConfig,
    FleetReport,
    generate_fleet_schedules,
    run_fleet,
    run_frontier,
)
from repro.runtime.policies import (
    POLICY_REGISTRY,
    PolicyBundle,
    RuntimePolicy,
    create_policy,
    get_bundle,
    policy_names,
)
from repro.runtime.traffic import (
    TRAFFIC_PATTERNS,
    ScheduleSet,
    board_rng,
    future_from_schedule,
    generate_schedule,
    generate_schedules,
)

__all__ = [
    "Board",
    "ENGINES",
    "FastRunStats",
    "FleetConfig",
    "FleetReport",
    "generate_fleet_schedules",
    "run_fleet",
    "run_frontier",
    "simulate_fast_fleet",
    "vector_mode",
    "POLICY_REGISTRY",
    "PolicyBundle",
    "RuntimePolicy",
    "create_policy",
    "get_bundle",
    "policy_names",
    "TRAFFIC_PATTERNS",
    "ScheduleSet",
    "board_rng",
    "future_from_schedule",
    "generate_schedule",
    "generate_schedules",
]
