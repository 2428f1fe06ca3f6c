"""The board abstraction: one reconfigurable platform on a shared kernel.

Historically the runtime stack assumed one platform per :class:`Simulator`
(``SystemSimulation`` built the simulator, builder, manager and executive as
one unit).  :class:`Board` factors that unit out and takes the simulator as a
*handle*, so M boards coexist on one event kernel: each board owns its
bitstream store, protocol builder, configuration manager and (optionally) an
executive runner, while the kernel's calendar interleaves all of them
deterministically — per-board event order is fixed by the kernel's FIFO
tie-break, independent of how many other boards share the calendar or in
which order they were registered.

Identity is namespaced per board through its :class:`~repro.sim.Trace`: each
board records into its own trace whose ``scope`` is the board name and the
process of its sim-clock spans, so each board renders as its own Perfetto
process lane.  Actor names *inside* a trace stay board-relative
(``region.D1`` on every board), so per-board traces compare equal across
boards and runs.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Hashable, Optional, Sequence

from repro.executive.interpreter import ExecutionReport, ExecutiveRunner
from repro.reconfig.architectures import ReconfigArchitecture
from repro.reconfig.eviction import EvictionPolicy
from repro.reconfig.manager import ManagerStats, ReconfigurationManager
from repro.reconfig.memory import BitstreamStore
from repro.reconfig.prefetch import PrefetchPolicy
from repro.sim import Simulator, Trace

__all__ = ["Board"]


class Board:
    """One platform instance (store + builder + manager) on a shared kernel."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        architecture: ReconfigArchitecture,
        store: BitstreamStore,
        *,
        policy: Optional[PrefetchPolicy] = None,
        eviction: Optional[EvictionPolicy] = None,
        region_slots: int = 1,
        trace: Optional[Trace] = None,
        strict_crc: bool = True,
        verify_readback: bool = False,
        telemetry=None,
    ):
        self.name = name
        self.sim = sim
        self.architecture = architecture
        self.store = store
        self.trace = trace
        self.builder = architecture.make_builder(sim, store, trace=trace)
        self.manager = ReconfigurationManager(
            sim,
            self.builder,
            policy=policy,
            request_latency_ns=architecture.request_latency_ns,
            trace=trace,
            strict_crc=strict_crc,
            verify_readback=verify_readback,
            region_slots=region_slots,
            eviction=eviction,
            telemetry=telemetry,
        )
        self.runner: Optional[ExecutiveRunner] = None
        #: set once drive() finishes the board's whole schedule
        self.done_at_ns: Optional[int] = None

    # -- setup ---------------------------------------------------------------

    def preload(self, region: str, module: str) -> None:
        """Mark a module as shipped in the initial full bitstream."""
        self.manager.preload(region, module)

    def attach_executive(
        self,
        program: Any,
        n_iterations: int,
        *,
        bindings: Optional[dict[str, Any]] = None,
        selector_values: Optional[dict[str, Callable[[int], Hashable]]] = None,
        capture: Optional[set[str]] = None,
    ) -> ExecutiveRunner:
        """Wire an executive to this board's configuration manager.

        The runner shares the board's simulator and trace; calling its
        ``run()`` drives the kernel, so use it only for single-board runs —
        fleet boards are driven by request schedules instead.
        """
        self.runner = ExecutiveRunner(
            program,
            n_iterations=n_iterations,
            sim=self.sim,
            bindings=bindings,
            selector_values=selector_values,
            config_service=self.manager,
            capture=capture,
            trace=self.trace,
        )
        return self.runner

    def run_executive(self) -> ExecutionReport:
        """Run the attached executive to completion (single-board use)."""
        if self.runner is None:
            raise RuntimeError(f"board {self.name!r} has no attached executive")
        return self.runner.run()

    # -- fleet driving -------------------------------------------------------

    def start(self, schedule: Sequence[tuple[int, str, str]]) -> None:
        """Spawn the request-driver process for a pre-generated schedule.

        The process replays ``(gap_ns, region, module)`` requests against the
        configuration manager; the caller runs the shared kernel once all
        boards are started.
        """
        self.sim.process(self._drive(schedule), name=f"drive:{self.name}")

    def _drive(self, schedule: Sequence[tuple[int, str, str]]) -> Generator:
        sim, manager = self.sim, self.manager
        for gap_ns, region, module in schedule:
            # The Select register is written when the request is *known*,
            # the data arrives a gap later — that window is exactly what
            # announcement-driven prefetchers (the paper's "fixed") exploit.
            manager.notify_select(region, module)
            if gap_ns:
                yield sim.timeout(gap_ns)
            yield manager.ensure_loaded(region, module)
        self.done_at_ns = sim.now

    # -- results -------------------------------------------------------------

    @property
    def stats(self) -> ManagerStats:
        return self.manager.stats
