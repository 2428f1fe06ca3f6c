"""The runtime configuration manager.

Monitors the dynamic regions, queues configuration requests, consults the
prefetch policy, and drives the protocol configuration builder.  Implements
the executive's configuration-service protocol (``ensure_loaded`` /
``notify_select``), so an :class:`~repro.executive.interpreter.ExecutiveRunner`
can use it directly as its ``config_service``.

Per region the manager also drives an ``In_Reconf`` signal — the paper's
lock-up of the receiving interface during partial reconfiguration.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Sequence

from repro.reconfig.eviction import EvictionPolicy
from repro.reconfig.prefetch import NoPrefetchPolicy, PrefetchPolicy
from repro.reconfig.protocol import ProtocolConfigurationBuilder, ProtocolError
from repro.sim import Event, Mailbox, Signal, Simulator, Trace

__all__ = [
    "COUNTER_FIELDS",
    "ReconfigError",
    "ManagerStats",
    "ReconfigStats",
    "ReconfigurationManager",
]


class ReconfigError(RuntimeError):
    """Manager misuse or unrecoverable configuration failure."""


@dataclass
class ManagerStats:
    """Counters for the benchmarks."""

    demand_requests: int = 0
    demand_loads: int = 0
    prefetch_loads: int = 0
    useful_prefetches: int = 0
    wasted_prefetches: int = 0
    instant_hits: int = 0
    #: demands satisfied by a non-active module already configured in the
    #: region's shared area (multi-slot mode; zero with region_slots=1)
    resident_hits: int = 0
    evictions: int = 0
    stall_ns: int = 0
    crc_failures: int = 0
    readback_failures: int = 0
    load_retries: int = 0

    def mean_stall_ns(self) -> float:
        return self.stall_ns / self.demand_requests if self.demand_requests else 0.0

    def hit_rate(self) -> float:
        """Fraction of demand requests served without a blocking load."""
        if not self.demand_requests:
            return 0.0
        return (self.instant_hits + self.resident_hits) / self.demand_requests

    def to_dict(self) -> dict:
        return asdict(self)

    # -- array-form bridge (the batched fleet engine keeps counters as flat
    # -- integer rows; these two methods pin the field order in one place) ----

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        """Counter names in declaration order (the array-row layout)."""
        return COUNTER_FIELDS

    def as_counters(self) -> list[int]:
        """The stats as a flat row, ordered like :meth:`field_names`."""
        return [getattr(self, name) for name in COUNTER_FIELDS]

    @classmethod
    def from_counters(cls, values: Sequence[int]) -> "ManagerStats":
        """Rebuild from a flat row (numpy integers are normalised to int)."""
        if len(values) != len(COUNTER_FIELDS):
            raise ValueError(
                f"expected {len(COUNTER_FIELDS)} counters, got {len(values)}"
            )
        return cls(**{name: int(v) for name, v in zip(COUNTER_FIELDS, values)})


#: Declaration-ordered counter names; the contract between ManagerStats and
#: every array-form consumer (repro.runtime.fast keeps one int64 row per board
#: in exactly this layout).
COUNTER_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(ManagerStats))


#: The reconfiguration-side stats bag under the name the observability layer
#: uses for it (useful/wasted prefetch accounting feeds the telemetry hub).
ReconfigStats = ManagerStats


@dataclass
class _Job:
    region: str
    module: str
    demand: bool
    done: Event
    cancelled: bool = False
    #: a demand satisfied from the resident area once dequeued
    hit: bool = False


@dataclass
class _RegionState:
    loaded: Optional[str] = None
    loading: Optional[str] = None
    load_started_at: int = 0
    load_done: Optional[Event] = None
    queue: Optional[Mailbox] = None
    history: list[str] = field(default_factory=list)
    #: module that was prefetched but not yet demanded (for waste accounting)
    unclaimed_prefetch: Optional[str] = None
    #: the in-flight load is speculative and no demand has claimed it yet;
    #: a mid-flight claim flips this so completion does not re-mark the
    #: module unclaimed (which would double-count it as useful later)
    inflight_prefetch_unclaimed: bool = False
    #: last module demanded (the history predictor learns demand transitions,
    #: self-transitions included — otherwise it would always predict a switch)
    last_demand: Optional[str] = None
    #: modules currently configured in the region's shared area, insertion
    #: ordered (dict-as-ordered-set); only maintained with region_slots > 1
    resident: dict[str, None] = field(default_factory=dict)


class ReconfigurationManager:
    """Configuration manager + prefetching over a protocol builder."""

    def __init__(
        self,
        sim: Simulator,
        builder: ProtocolConfigurationBuilder,
        policy: Optional[PrefetchPolicy] = None,
        request_latency_ns: int = 1_000,
        trace: Optional[Trace] = None,
        strict_crc: bool = True,
        verify_readback: bool = False,
        max_load_retries: int = 2,
        region_slots: int = 1,
        eviction: Optional[EvictionPolicy] = None,
        telemetry=None,
    ):
        if request_latency_ns < 0:
            raise ReconfigError("request latency must be >= 0")
        if max_load_retries < 0:
            raise ReconfigError("retry count must be >= 0")
        if region_slots < 1:
            raise ReconfigError("region_slots must be >= 1")
        self.sim = sim
        self.builder = builder
        self.policy = policy or NoPrefetchPolicy()
        self.request_latency_ns = request_latency_ns
        self.trace = trace
        self.strict_crc = strict_crc
        #: When True, every load is followed by a configuration readback and
        #: compared against the golden bitstream (≈ doubles the latency);
        #: mismatches are retried up to ``max_load_retries`` times.
        self.verify_readback = verify_readback
        self.max_load_retries = max_load_retries
        #: Area budget per region, in module configurations: with slots > 1
        #: several modules stay configured side by side and a demand for any
        #: resident one is an instant context switch (no port traffic);
        #: ``eviction`` picks the victim when the area fills up.  The default
        #: (1 slot, no eviction) is the paper's exclusive-region model and
        #: leaves the manager's behaviour exactly as before.
        self.region_slots = region_slots
        self.eviction = eviction
        self._multi = region_slots > 1
        #: Optional event sink with two lists: ``scalar_demands`` gets one
        #: ``(t_req, stall_ns, hit)`` per completed demand (``hit``: instant
        #: or resident) and ``scalar_port`` one ``(end_ns, duration_ns)``
        #: per transfer — the fleet telemetry recorder's input.
        self.telemetry = telemetry
        self.stats = ManagerStats()
        self.in_reconf: dict[str, Signal] = {}
        self._regions: dict[str, _RegionState] = {}
        for region in builder.store.regions():
            self._region(region)

    # -- region bookkeeping -----------------------------------------------------

    def _region(self, region: str) -> _RegionState:
        if region not in self._regions:
            state = _RegionState(queue=Mailbox(self.sim, name=f"reconfq.{region}"))
            self._regions[region] = state
            self.in_reconf[region] = Signal(self.sim, value=False, name=f"In_Reconf.{region}")
            self.sim.process(self._region_proc(region), name=f"mgr:{region}")
        return self._regions[region]

    def loaded_module(self, region: str) -> Optional[str]:
        return self._region(region).loaded

    def preload(self, region: str, module: str) -> None:
        """Mark ``module`` as configured at power-up (part of the initial
        full bitstream; the constraints file's ``loading = startup``)."""
        if not self._known(region, module):
            raise ReconfigError(f"no bitstream registered for {region}/{module}")
        state = self._region(region)
        if state.loaded is not None or state.loading is not None:
            raise ReconfigError(f"region {region!r} already configured; preload must come first")
        state.loaded = module
        state.history.append(module)
        if self._multi:
            state.resident[module] = None
            if self.eviction is not None:
                self.eviction.on_insert(region, module)
        if self.trace:
            self.trace.begin(self.sim.now, f"region.{region}", "resident", detail=module)

    # -- the executive-facing protocol --------------------------------------------

    def notify_select(self, region: str, module: str) -> None:
        """The selector announced the next configuration (prefetch hint)."""
        state = self._region(region)
        target = self.policy.on_select(region, module)
        if target is None:
            return
        if target == state.loaded or target == state.loading:
            return
        if self._multi and target in state.resident:
            return
        if not self._known(region, target):
            return
        self._enqueue(region, target, demand=False)

    def ensure_loaded(self, region: str, module: str) -> Event:
        """Event firing once ``module`` is active on ``region``."""
        if not self._known(region, module):
            raise ReconfigError(f"no bitstream registered for {region}/{module}")
        state = self._region(region)
        self.stats.demand_requests += 1
        called_at = self.sim.now
        # Predictors that learn from the demand stream expose observe();
        # duck-typing keeps the manager ignorant of concrete policy classes.
        observe = getattr(self.policy, "observe", None)
        if observe is not None:
            observe(state.last_demand, module)
        if self.eviction is not None:
            self.eviction.on_demand(region, module)
        state.last_demand = module

        if state.loaded == module and state.loading is None:
            if state.unclaimed_prefetch == module:
                self.stats.useful_prefetches += 1
                state.unclaimed_prefetch = None
            self.stats.instant_hits += 1
            self._record_demand(called_at, 0, True)
            ev = self.sim.event(name=f"hit:{region}/{module}")
            ev.succeed()
            if len(state.queue or ()) == 0:
                self._speculate(region)
            return ev

        if self._multi and module in state.resident and state.loading is None:
            # Already configured in the shared area: switch the active
            # context without touching the configuration port.
            if state.unclaimed_prefetch == module:
                self.stats.useful_prefetches += 1
                state.unclaimed_prefetch = None
            self.stats.resident_hits += 1
            self._record_demand(called_at, 0, True)
            self._activate(region, state, module)
            ev = self.sim.event(name=f"hit:{region}/{module}")
            ev.succeed()
            if len(state.queue or ()) == 0:
                self._speculate(region)
            return ev

        if state.loading == module and state.load_done is not None:
            # Piggyback on the in-flight load; it only counts as a useful
            # prefetch when the flight is speculative and still unclaimed
            # (joining a demand load is just queueing, not prediction).
            ev = self.sim.event(name=f"join:{region}/{module}")
            state.unclaimed_prefetch = None
            if state.inflight_prefetch_unclaimed:
                self.stats.useful_prefetches += 1
                state.inflight_prefetch_unclaimed = False
            self._chain_stall(state.load_done, ev, called_at)
            return ev

        # Cancel queued speculation for other modules; queue a demand load.
        job = self._enqueue(region, module, demand=True)
        ev = self.sim.event(name=f"demand:{region}/{module}")
        self._chain_stall(job.done, ev, called_at, job)
        return ev

    # -- internals ----------------------------------------------------------------------

    def _activate(self, region: str, state: _RegionState, module: str) -> None:
        """Make a resident module the active one (multi-slot context switch)."""
        actor = f"region.{region}"
        if self.trace:
            if self.trace.is_open(actor, "resident"):
                self.trace.end(self.sim.now, actor, "resident")
            self.trace.begin(self.sim.now, actor, "resident", detail=module)
        state.loaded = module
        state.history.append(module)

    def _evict_overflow(self, region: str, state: _RegionState, keep: str) -> None:
        """Shrink the resident set back to the area budget.

        ``keep`` (the just-loaded, now-active module) is never a candidate.
        Without an eviction policy the oldest resident goes (FIFO).
        """
        while len(state.resident) > self.region_slots:
            candidates = [m for m in state.resident if m != keep]
            if not candidates:
                return
            if self.eviction is not None:
                victim = self.eviction.choose_victim(region, candidates)
                self.eviction.on_evict(region, victim)
            else:
                victim = candidates[0]
            del state.resident[victim]
            self.stats.evictions += 1
            if state.unclaimed_prefetch == victim:
                # A speculative load left the area before anyone demanded it.
                self.stats.wasted_prefetches += 1
                state.unclaimed_prefetch = None

    def _known(self, region: str, module: str) -> bool:
        try:
            self.builder.store.get(region, module)
            return True
        except KeyError:
            return False

    def _record_demand(self, called_at: int, stall_ns: int, hit: bool) -> None:
        if self.telemetry is not None:
            self.telemetry.scalar_demands.append((called_at, stall_ns, hit))

    def _chain_stall(
        self, source: Event, target: Event, called_at: int, job: Optional[_Job] = None
    ) -> None:
        def on_done(ev: Event) -> None:
            self.stats.stall_ns += self.sim.now - called_at
            self._record_demand(called_at, self.sim.now - called_at, job is not None and job.hit)
            if ev.ok:
                target.succeed()
            else:
                target.fail(ev._exc or ReconfigError("configuration failed"))

        if source.processed:
            on_done(source)
        else:
            source.callbacks.append(on_done)

    def _enqueue(self, region: str, module: str, demand: bool) -> _Job:
        state = self._region(region)
        if demand:
            # A pending speculative job for a different module is now useless.
            for pending in list(state.queue._items):  # type: ignore[union-attr]
                if isinstance(pending, _Job) and not pending.demand and pending.module != module:
                    pending.cancelled = True
        job = _Job(region=region, module=module, demand=demand,
                   done=self.sim.event(name=f"load:{region}/{module}"))
        assert state.queue is not None
        state.queue.post(job)
        return job

    def _region_proc(self, region: str):
        state = self._regions[region]
        assert state.queue is not None
        while True:
            job: _Job = yield state.queue.get()
            if job.cancelled or job.module == state.loaded:
                if job.demand and job.module == state.loaded and state.unclaimed_prefetch == job.module:
                    self.stats.useful_prefetches += 1
                    state.unclaimed_prefetch = None
                job.done.succeed()
                if job.demand and len(state.queue) == 0:
                    self._speculate(region)
                continue
            if self._multi and job.module in state.resident:
                # Configured while the job sat in the queue (or prefetched
                # earlier): a demand switches the active context, a
                # speculative job is simply satisfied.
                if job.demand:
                    if state.unclaimed_prefetch == job.module:
                        self.stats.useful_prefetches += 1
                        state.unclaimed_prefetch = None
                    self.stats.resident_hits += 1
                    job.hit = True
                    self._activate(region, state, job.module)
                job.done.succeed()
                if job.demand and len(state.queue) == 0:
                    self._speculate(region)
                continue
            # The request travels to the manager/builder (Fig. 2 placement).
            yield self.sim.timeout(self.request_latency_ns)
            state.loading = job.module
            state.load_started_at = self.sim.now
            state.load_done = job.done
            state.inflight_prefetch_unclaimed = not job.demand
            self.in_reconf[region].set(True)
            # Per-region load interval: demand loads as "load", speculative
            # ones as "prefetch" (the Fig. 4 Gantt overlay).  The port-level
            # "reconfig" span kind stays exclusively the builder's.
            load_kind = "load" if job.demand else "prefetch"
            if self.trace:
                self.trace.begin(self.sim.now, f"region.{region}", load_kind, detail=job.module)
            previous = state.loaded
            try:
                outcome = yield self.sim.process(self.builder.load(region, job.module))
                if self.telemetry is not None:
                    self.telemetry.scalar_port.append((self.sim.now, outcome.duration_ns))
                if self.verify_readback:
                    attempts = 0
                    while True:
                        ok = yield self.sim.process(self.builder.readback(region, job.module))
                        if ok:
                            break
                        self.stats.readback_failures += 1
                        if attempts >= self.max_load_retries:
                            raise ProtocolError(
                                f"readback verification failed for {region}/{job.module} "
                                f"after {attempts + 1} attempts"
                            )
                        attempts += 1
                        self.stats.load_retries += 1
                        yield self.sim.process(self.builder.load(region, job.module))
            except ProtocolError as err:
                self.stats.crc_failures += 1
                state.loading = None
                state.load_done = None
                state.inflight_prefetch_unclaimed = False
                self.in_reconf[region].set(False)
                if self.trace:
                    self.trace.end(self.sim.now, f"region.{region}", load_kind)
                if self.strict_crc:
                    job.done.fail(ReconfigError(str(err)))
                else:
                    job.done.fail(err)
                continue
            # Swap complete.  With one slot the previous module is gone (the
            # load overwrote it); with a shared area it stays resident and
            # only leaves via eviction below.
            if not self._multi and state.unclaimed_prefetch is not None and state.unclaimed_prefetch == previous:
                self.stats.wasted_prefetches += 1
                state.unclaimed_prefetch = None
            state.loaded = job.module
            state.loading = None
            state.load_done = None
            state.history.append(job.module)
            self.in_reconf[region].set(False)
            if self.trace:
                actor = f"region.{region}"
                self.trace.end(self.sim.now, actor, load_kind)
                if self.trace.is_open(actor, "resident"):
                    self.trace.end(self.sim.now, actor, "resident")
                self.trace.begin(self.sim.now, actor, "resident", detail=job.module)
            if self._multi:
                state.resident[job.module] = None
                if self.eviction is not None:
                    self.eviction.on_insert(region, job.module)
                self._evict_overflow(region, state, keep=job.module)
            if job.demand:
                self.stats.demand_loads += 1
            else:
                self.stats.prefetch_loads += 1
                if state.inflight_prefetch_unclaimed:
                    state.unclaimed_prefetch = job.module
            state.inflight_prefetch_unclaimed = False
            job.done.succeed()
            # Idle speculation opportunity — only after demand activity, so
            # speculation never chains on speculation (bounded lookahead).
            if job.demand and len(state.queue) == 0:
                self._speculate(region)

    def _speculate(self, region: str) -> None:
        state = self._region(region)
        target = self.policy.on_idle(region, state.loaded, state.history)
        if target and target not in (state.loaded, state.loading) and self._known(region, target):
            if self._multi and target in state.resident:
                return
            self._enqueue(region, target, demand=False)

    # -- array-form state bridge ---------------------------------------------------
    #
    # The batched fleet engine (repro.runtime.fast) advances manager state as
    # flat arrays.  These hooks translate between a quiescent manager and that
    # plain-data form, so a board can be handed from one engine to the other
    # (and so tests can assert the array form round-trips losslessly).

    def export_state(self) -> dict:
        """Snapshot the visible manager state as plain data.

        Only quiescent managers export: an in-flight or queued load has no
        array representation (the fast engine materialises those transients
        itself).  Raises :class:`ReconfigError` otherwise.
        """
        for region, state in self._regions.items():
            if state.loading is not None or (state.queue is not None and len(state.queue)):
                raise ReconfigError(
                    f"cannot export state while region {region!r} has active or queued loads"
                )
        return {
            "stats": self.stats.as_counters(),
            "regions": {
                region: {
                    "loaded": state.loaded,
                    "history": list(state.history),
                    "unclaimed_prefetch": state.unclaimed_prefetch,
                    "last_demand": state.last_demand,
                    "resident": list(state.resident),
                }
                for region, state in self._regions.items()
            },
        }

    def import_state(self, snapshot: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        self.stats = ManagerStats.from_counters(snapshot["stats"])
        for region, data in snapshot["regions"].items():
            state = self._region(region)
            if state.loading is not None or (state.queue is not None and len(state.queue)):
                raise ReconfigError(
                    f"cannot import state while region {region!r} has active or queued loads"
                )
            state.loaded = data["loaded"]
            state.history = list(data["history"])
            state.unclaimed_prefetch = data["unclaimed_prefetch"]
            state.last_demand = data["last_demand"]
            state.resident = dict.fromkeys(data["resident"])
