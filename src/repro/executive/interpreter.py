"""Executive interpreter: runs the macro-code on the discrete-event kernel.

This is the flow's *dynamic verification* stage (Fig. 3): the generated
executive is executed with real data so both timing (iteration period,
reconfiguration stalls) and functional behaviour (actual MC-CDMA samples,
when functional bindings are supplied) can be observed.

Concurrency model: one process per operator and per medium, plus the
configuration service.  Cross-operator edges become chains of capacity-1
channels (the alternating buffers of the generated design), which gives the
natural back-pressure of the synchronized executive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Optional

from repro.executive.macrocode import (
    ComputeInstr,
    ExecutiveProgram,
    Instruction,
    MacroCodeError,
    RecvInstr,
    ReconfigureInstr,
    SendInstr,
    TransferInstr,
)
from repro.sim import Channel, Event, Simulator, Trace

__all__ = [
    "ConditionContext",
    "FixedLatencyConfigService",
    "ExecutionReport",
    "ExecutiveRunner",
]

#: Functional binding: kind -> f(inputs_by_port, params) -> outputs_by_port.
Binding = Callable[[dict[str, Any], dict], dict[str, Any]]


class ConditionContext:
    """Per-iteration condition values with wait-until-decided events."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._values: dict[tuple[int, str], Any] = {}
        self._events: dict[tuple[int, str], Event] = {}

    def _event(self, iteration: int, group: str) -> Event:
        key = (iteration, group)
        if key not in self._events:
            self._events[key] = self.sim.event(name=f"cond:{group}@{iteration}")
        return self._events[key]

    def decide(self, iteration: int, group: str, value: Hashable) -> None:
        key = (iteration, group)
        if key in self._values:
            raise MacroCodeError(f"group {group!r} decided twice in iteration {iteration}")
        self._values[key] = value
        self._event(iteration, group).succeed(value)

    def decided(self, iteration: int, group: str) -> bool:
        return (iteration, group) in self._values

    def value_event(self, iteration: int, group: str) -> Event:
        """Event carrying the group's value for the iteration (may be past)."""
        return self._event(iteration, group)

    def value(self, iteration: int, group: str) -> Any:
        return self._values[(iteration, group)]


class FixedLatencyConfigService:
    """Minimal configuration service: fixed swap latency, optional prefetch.

    The real runtime reconfiguration manager (:mod:`repro.reconfig.manager`)
    implements this same protocol; this stub lets the executive be tested in
    isolation and doubles as the "no manager intelligence" baseline.

    Prefetch hints (:meth:`notify_select`) are **always counted**
    (``hints_seen``) so executive-level benchmarks can report hint traffic,
    and are **acted on only when** the service is built with
    ``prefetch=True``: the hinted swap starts immediately and a later demand
    for the same module stalls only for the remaining swap time.  The
    default (``prefetch=False``) is the documented reactive baseline — hints
    are observed but deliberately not acted on.

    ``stall_ns`` accounts the *demand-visible* wait: a purely reactive swap
    contributes its full latency (as before), a prefetched swap only the
    part that overlaps the demand.
    """

    def __init__(
        self,
        sim: Simulator,
        latency_ns: int,
        trace: Optional[Trace] = None,
        prefetch: bool = False,
    ):
        if latency_ns < 0:
            raise ValueError("latency must be >= 0")
        self.sim = sim
        self.latency_ns = latency_ns
        self.trace = trace
        self.prefetch = prefetch
        self.loaded: dict[str, Optional[str]] = {}
        self.swap_count = 0
        self.stall_ns = 0
        self.hints_seen = 0
        self.prefetch_starts = 0
        #: region -> (module being configured, completion event, expected end time)
        self._in_flight: dict[str, tuple[str, Event, int]] = {}

    def _start_swap(self, region: str, module: str) -> Event:
        done = self.sim.event(name=f"swap:{region}<-{module}")
        self._in_flight[region] = (module, done, self.sim.now + self.latency_ns)

        def swap():
            start = self.sim.now
            if self.trace:
                self.trace.begin(start, f"region.{region}", "reconfig", detail=module)
            yield self.sim.timeout(self.latency_ns)
            self.loaded[region] = module
            self.swap_count += 1
            if self.trace:
                self.trace.end(self.sim.now, f"region.{region}", "reconfig")
            self._in_flight.pop(region, None)
            done.succeed()

        self.sim.process(swap(), name=f"swap:{region}")
        return done

    def _chain(self, source: Event, target: Event) -> None:
        def forward():
            yield source
            target.succeed()

        self.sim.process(forward(), name="cfg-chain")

    def notify_select(self, region: str, module: str) -> None:
        """Prefetch hint: counted always, acted on when ``prefetch=True``."""
        self.hints_seen += 1
        if not self.prefetch:
            return
        if self.loaded.get(region) == module and region not in self._in_flight:
            return
        if region in self._in_flight:  # one swap at a time per region
            return
        self.prefetch_starts += 1
        self._start_swap(region, module)

    def ensure_loaded(self, region: str, module: str) -> Event:
        """Event that fires once ``module`` is configured on ``region``."""
        ev = self.sim.event(name=f"cfg:{region}<-{module}")
        in_flight = self._in_flight.get(region)
        if in_flight is None:
            if self.loaded.get(region) == module:
                ev.succeed()
                return ev
            self.stall_ns += self.latency_ns
            self._chain(self._start_swap(region, module), ev)
            return ev
        flight_module, done, expected_end = in_flight
        self.stall_ns += max(0, expected_end - self.sim.now)
        if flight_module == module:  # demand absorbed by the prefetch in flight
            self._chain(done, ev)
            return ev

        # Wrong module mid-swap (mispredicted hint): swap again afterwards.
        self.stall_ns += self.latency_ns

        def follow():
            yield done
            second = self._start_swap(region, module)
            yield second
            ev.succeed()

        self.sim.process(follow(), name=f"follow:{region}")
        return ev


@dataclass
class ExecutionReport:
    """Results of one executive run."""

    trace: Trace
    end_time_ns: int
    iteration_ends: dict[str, list[int]]
    captured: dict[str, list[dict[str, Any]]] = field(default_factory=dict)
    condition_history: list[Hashable] = field(default_factory=list)

    def iteration_period_ns(self, operator: str) -> float:
        """Mean steady-state iteration period observed on ``operator``."""
        ends = self.iteration_ends.get(operator, [])
        if len(ends) < 2:
            return float(self.end_time_ns)
        diffs = [b - a for a, b in zip(ends, ends[1:])]
        return sum(diffs) / len(diffs)

    def throughput_iterations_per_s(self, operator: str) -> float:
        period = self.iteration_period_ns(operator)
        return 1e9 / period if period else float("inf")


class ExecutiveRunner:
    """Executes an :class:`ExecutiveProgram` for a number of iterations."""

    def __init__(
        self,
        program: ExecutiveProgram,
        n_iterations: int = 1,
        sim: Optional[Simulator] = None,
        bindings: Optional[dict[str, Binding]] = None,
        selector_values: Optional[dict[str, Callable[[int], Hashable]]] = None,
        config_service: Optional[Any] = None,
        capture: Optional[set[str]] = None,
        channel_capacity: int = 1,
        trace: Optional[Trace] = None,
    ):
        if n_iterations < 1:
            raise ValueError("need at least one iteration")
        program.validate()
        self.program = program
        self.n_iterations = n_iterations
        self.sim = sim or Simulator()
        self.bindings = bindings or {}
        self.selector_values = selector_values or {}
        self.trace = trace if trace is not None else Trace()
        self.config_service = config_service or FixedLatencyConfigService(
            self.sim, latency_ns=0, trace=self.trace
        )
        self.capture = capture or set()
        self.ctx = ConditionContext(self.sim)
        self._channels: dict[tuple[str, int], Channel] = {}
        for edge_id, hops in program.edge_hops.items():
            for slot in range(hops + 1):
                self._channels[(edge_id, slot)] = Channel(
                    self.sim, capacity=channel_capacity, name=f"{edge_id}#{slot}"
                )
        self._iteration_ends: dict[str, list[int]] = {}
        self._captured: dict[str, list[dict[str, Any]]] = {name: [] for name in self.capture}
        self._condition_history: list[Hashable] = []
        #: vertex name -> human-readable description of its current position,
        #: used for deadlock diagnosis when the simulation stalls.
        self._status: dict[str, str] = {}

    # -- condition helpers ------------------------------------------------------

    def _passes(self, instr: Instruction, iteration: int):
        """Process body: wait for the instruction's condition to be decided;
        returns True when the instruction should execute."""
        if not instr.is_conditioned:
            return True, None
        assert instr.condition_group is not None
        if self.ctx.decided(iteration, instr.condition_group):
            return self.ctx.value(iteration, instr.condition_group) == instr.condition_value, None
        return None, self.ctx.value_event(iteration, instr.condition_group)

    # -- operator process ------------------------------------------------------------

    def _operator_proc(self, name: str, code: list[Instruction]):
        local: dict[str, Any] = {}  # "op.port" -> value
        ends = self._iteration_ends.setdefault(name, [])
        for iteration in range(self.n_iterations):
            local.clear()  # buffers are per-iteration; avoids stale conditioned data
            for index, instr in enumerate(code):
                self._status[name] = (
                    f"iteration {iteration}, instruction {index}: {type(instr).__name__}"
                    f"({getattr(instr, 'op_name', getattr(instr, 'edge_id', getattr(instr, 'module', '')))})"
                )
                ok, wait = self._passes(instr, iteration)
                if ok is None:
                    value = yield wait
                    ok = value == instr.condition_value
                if not ok:
                    continue
                if isinstance(instr, RecvInstr):
                    chan = self._channels[(instr.edge_id, self.program.edge_hops[instr.edge_id])]
                    payload = yield chan.get()
                    local[f"<in>{instr.edge_id}"] = payload
                elif isinstance(instr, ComputeInstr):
                    yield from self._compute(name, instr, iteration, local)
                elif isinstance(instr, SendInstr):
                    chan = self._channels[(instr.edge_id, 0)]
                    src_key = instr.edge_id.split("->")[0]  # "op.port"
                    yield chan.put(local.get(src_key))
                elif isinstance(instr, ReconfigureInstr):
                    yield self.config_service.ensure_loaded(instr.region, instr.module)
                else:  # pragma: no cover - defensive
                    raise MacroCodeError(f"unknown instruction {instr!r}")
            ends.append(self.sim.now)
        self._status[name] = "finished"

    def _compute(self, operator_name: str, instr: ComputeInstr, iteration: int, local: dict):
        actor = f"op.{operator_name}"
        self.trace.begin(self.sim.now, actor, "compute", detail=instr.op_name)
        yield self.sim.timeout(instr.duration_ns)
        self.trace.end(self.sim.now, actor, "compute")

        outputs: dict[str, Any] = {}
        binding = self.bindings.get(instr.kind)
        if binding is not None:
            inputs = self._gather_inputs(instr.op_name, local)
            outputs = binding(inputs, dict(instr.params, iteration=iteration)) or {}
            for port, value in outputs.items():
                local[f"{instr.op_name}.{port}"] = value
        if instr.op_name in self.capture:
            self._captured[instr.op_name].append(dict(outputs))
        if instr.decides_group is not None:
            value = self._decide_value(instr, iteration, outputs)
            self.ctx.decide(iteration, instr.decides_group, value)
            self._condition_history.append(value)
            targets = self.program.case_modules.get(instr.decides_group, {}).get(value, {})
            for region in self.program.selector_regions.get(instr.decides_group, ()):
                module = targets.get(region, str(value))
                self.config_service.notify_select(region, module)

    def _decide_value(self, instr: ComputeInstr, iteration: int, outputs: dict[str, Any]) -> Hashable:
        provider = self.selector_values.get(instr.decides_group or "")
        if provider is not None:
            return provider(iteration)
        if outputs:
            return next(iter(outputs.values()))
        values = self.program.condition_groups.get(instr.decides_group or "", [])
        if not values:
            raise MacroCodeError(f"no value source for condition group {instr.decides_group!r}")
        return values[0]

    def _gather_inputs(self, op_name: str, local: dict[str, Any]) -> dict[str, Any]:
        """Collect input values via the program's input-source map."""
        inputs: dict[str, Any] = {}
        for port, (kind, key) in self.program.input_sources.get(op_name, {}).items():
            if kind == "local":
                inputs[port] = local.get(key)
            else:  # cross-operator edge, delivered by a RecvInstr
                inputs[port] = local.get(f"<in>{key}")
        return inputs

    # -- medium process --------------------------------------------------------------

    def _medium_proc(self, name: str, code: list[TransferInstr]):
        for iteration in range(self.n_iterations):
            for index, instr in enumerate(code):
                self._status[f"medium:{name}"] = (
                    f"iteration {iteration}, transfer {index}: {instr.edge_id} hop{instr.hop}"
                )
                ok, wait = self._passes(instr, iteration)
                if ok is None:
                    value = yield wait
                    ok = value == instr.condition_value
                if not ok:
                    continue
                src = self._channels[(instr.edge_id, instr.hop)]
                dst = self._channels[(instr.edge_id, instr.hop + 1)]
                payload = yield src.get()
                actor = f"medium.{name}"
                self.trace.begin(self.sim.now, actor, "comm", detail=instr.edge_id)
                yield self.sim.timeout(instr.duration_ns)
                self.trace.end(self.sim.now, actor, "comm")
                yield dst.put(payload)
        self._status[f"medium:{name}"] = "finished"

    # -- run -----------------------------------------------------------------------------

    def run(self) -> ExecutionReport:
        """Execute all iterations; returns the report.

        A stalled executive (inconsistent program, missing selector, …)
        raises :class:`MacroCodeError` with a per-vertex status dump instead
        of the kernel's bare "calendar drained" error."""
        from repro.sim import SimulationError

        procs = []
        for name, code in self.program.operator_code.items():
            procs.append(self.sim.process(self._operator_proc(name, code), name=f"op:{name}"))
        for name, code in self.program.medium_code.items():
            procs.append(self.sim.process(self._medium_proc(name, code), name=f"med:{name}"))
        done = self.sim.all_of(procs)
        try:
            self.sim.run(until=done)
        except SimulationError as err:
            stuck = [
                f"  {vertex}: {where}"
                for vertex, where in sorted(self._status.items())
                if where != "finished"
            ]
            raise MacroCodeError(
                "executive deadlocked at t={} ns; vertices not finished:\n{}".format(
                    self.sim.now, "\n".join(stuck) or "  (none recorded)"
                )
            ) from err
        return ExecutionReport(
            trace=self.trace,
            end_time_ns=self.sim.now,
            iteration_ends=self._iteration_ends,
            captured=self._captured,
            condition_history=self._condition_history,
        )
