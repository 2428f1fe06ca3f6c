"""The benchmark's four workloads: inputs from a seed, timed steps, output checks.

Every workload is a closed loop with one client: the next step starts
when the previous one returns, on one thread, with no worker pool
(``jobs=0``).  A step returns ``(kind, seconds, output)`` samples; only the
call into the program is inside ``seconds``, and the output is checked
after the clock stops.

- ``flow``: the paper's flow on the Fig. 4 MC-CDMA case study, exactly as
  ``repro flow`` drives it, cold (no cache) and warm (one shared in-memory
  ``ArtifactCache``), in an order drawn from the seed.
- ``fleet-vector`` / ``fleet-scalar``: what ``repro fleet --policy a,b,c,d``
  pays per pass: schedule generation, one ``run_fleet`` per policy and each
  report's digest.  The seed is the traffic seed.
- ``search``: one ``search_multiregion`` call at a fixed budget.  Its own
  search seed stays 0 whatever the workload seed: the evaluation rate moves
  by about 15 % between search seeds, more than the bound the benchmark sets.
"""

from __future__ import annotations

import dataclasses
import random
import statistics
from collections import defaultdict
from time import perf_counter
from typing import Optional

from repro.cli import CASE_STUDY_CONSTRAINTS
from repro.dfg.generators import multiregion_graph
from repro.dfg.library import default_library
from repro.fabric.device import XC2V2000
from repro.flows import ArtifactCache, DesignFlow, parse_constraints
from repro.flows.designspace import search_multiregion
from repro.mccdma.casestudy import build_mccdma_design
from repro.reconfig import case_a_standalone
from repro.runtime import FleetConfig, generate_fleet_schedules, run_fleet

from layers import ROOT, NullRecorder, self_times

__all__ = ["make_workload", "layer_metrics"]

SEARCH_SEED = 0
#: boards per policy in the fast-versus-kernel parity slice
PARITY_BOARDS = 4
#: width of the windows whose medians quiet_time compares
WINDOW_S = 2.0


def quiet_time(samples, kind: Optional[str] = None) -> float:
    """Median step time of ``kind`` in the run's quietest window, in seconds.

    ``samples`` are ``(kind, seconds, offset)`` with ``offset`` the step's
    start within the run.  The shared reference host slows down 1.5 to 2
    times for stretches of seconds to minutes, so a run's plain median moves
    with the share of the run those stretches cover.  The median of the
    fastest 2-second window moves only when the whole run is slow.  A step
    longer than a window is alone in its window, so for the fleet and
    search workloads this is the fastest step.
    """
    windows: dict[int, list[float]] = defaultdict(list)
    for sample_kind, seconds, offset in samples:
        if kind is None or sample_kind == kind:
            windows[int(offset // WINDOW_S)].append(seconds)
    return min(statistics.median(times) for times in windows.values())


# -- result hooks for the traced run (see layers.Patch) -------------------------


def _scheduler_hook(recorder, handle, args, result) -> None:
    recorder.facts["scheduler"].append(result.scheduler_stats)


def _pipeline_hook(recorder, handle, args, result) -> None:
    pipeline = args[0]
    if pipeline.cache is not None:
        hits = sum(event.cache_hit for event in pipeline.events)
        recorder.facts["pipeline_cache"].append((hits, len(pipeline.events)))


def _fast_hook(recorder, handle, args, result) -> None:
    config = args[0]
    handle.set_attribute("policy", config.policy)
    handle.set_attribute("requests", len(args[1]) * config.requests_per_board)


def _evaluator_hook(recorder, handle, args, result) -> None:
    recorder.facts["evaluators"].append(args[0].stats)


def _anneal_hook(recorder, handle, args, result) -> None:
    recorder.facts["anneal"].append((result.accepted, result.evaluations))


class Workload:
    """What every workload provides beyond ``step``, ``check`` and ``end_to_end``."""

    def prime(self) -> None:
        """Untimed preparation before the first step."""

    def final_checks(self) -> tuple[int, list[str]]:
        """Untimed checks after the last step: (operations, failures)."""
        return 0, []


class FlowWorkload(Workload):
    name = "flow"
    ops_per_step = 2
    patches = [
        ("repro.flows.flow", "DesignFlow.build_pipeline", "flows.pipeline", None),
        ("repro.flows.pipeline", "FlowPipeline.run", "flows.pipeline", _pipeline_hook),
        ("repro.flows.flow", "validate_graph", "dfg.validate", None),
        ("repro.flows.flow", "adequate", "aaa.adequate", _scheduler_hook),
        ("repro.flows.flow", "generate_design", "codegen.generate_design", None),
        ("repro.flows.flow", "run_modular_backend", "flows.modular", None),
        ("repro.flows.flow", "generate_executive", "executive.generate", None),
        ("repro.flows.modular", "Synthesizer.synthesize_module", "fabric.synthesis", None),
        ("repro.flows.modular", "Floorplanner.plan", "fabric.floorplan", None),
        ("repro.flows.modular", "PlaceAndRoute.check", "fabric.par", None),
        ("repro.flows.modular", "generate_partial_bitstream", "fabric.bitstream", None),
    ]

    def __init__(self, seed: int, golden: Optional[dict]):
        self.rng = random.Random(seed)
        self.golden = golden
        self.cache = ArtifactCache()
        self.reference: Optional[tuple] = None

    def prime(self) -> None:
        """Fill the shared cache so every timed warm run is all hits."""
        self.check("warm", self._run(NullRecorder(), self.cache))

    def _run(self, recorder, cache):
        with recorder.span("mccdma.casestudy"):
            design = build_mccdma_design()
        with recorder.span("flows.flow"):
            flow = DesignFlow.from_design(
                design,
                dynamic_constraints=parse_constraints(CASE_STUDY_CONSTRAINTS),
                reconfig_architecture=case_a_standalone(),
                cache=cache,
            )
            flow.mapping.pin("bit_src", "DSP").pin("select", "DSP")
            return flow.run()

    def step(self, recorder) -> list:
        kinds = ["cold", "warm"]
        self.rng.shuffle(kinds)
        samples = []
        for kind in kinds:
            started = perf_counter()
            result = self._run(recorder, None if kind == "cold" else self.cache)
            samples.append((kind, perf_counter() - started, result))
            recorder.facts["design"].append(
                (result.makespan_ns, result.modular.reconfig_latency_ns["D1"])
            )
        return samples

    def check(self, kind: str, result) -> list[str]:
        failures = []
        latency = result.modular.reconfig_latency_ns.get("D1")
        if self.golden is not None and (result.makespan_ns, latency) != (
            self.golden["makespan_ns"],
            self.golden["d1_reconfig_ns"],
        ):
            failures.append(
                f"{kind} run: makespan {result.makespan_ns} ns / D1 {latency} ns, pinned "
                f"{self.golden['makespan_ns']} / {self.golden['d1_reconfig_ns']}"
            )
        observed = (
            [(event.stage, event.fingerprint) for event in result.events],
            result.executive.render(),
        )
        if self.reference is None:
            self.reference = observed
        elif observed != self.reference:
            failures.append(f"{kind} run: stage fingerprints or executive differ from the first run")
        return failures

    def end_to_end(self, samples) -> dict[str, float]:
        return {
            "op_ms": quiet_time(samples, "cold") * 1e3,
            "work_per_s": 1.0 / quiet_time(samples, "warm"),
        }

    def outputs(self, facts) -> dict[str, float]:
        makespan_ns, d1_ns = facts["design"][0]
        hits = sum(h for h, _ in facts["pipeline_cache"])
        lookups = sum(n for _, n in facts["pipeline_cache"])
        return {
            "design_makespan_us": makespan_ns / 1e3,
            "design_reconfig_ms": d1_ns / 1e6,
            "flows.pipeline.cache_hit_ratio": hits / lookups if lookups else 0.0,
        }


class FleetWorkload(Workload):
    patches = [("repro.runtime.fleet", "simulate_fast_fleet", "runtime.fast", _fast_hook)]

    def __init__(
        self,
        name: str,
        seed: int,
        boards: int,
        requests: int,
        policies: tuple[str, ...],
        golden: Optional[dict],
    ):
        self.name = name
        self.policies = policies
        self.ops_per_step = len(policies)
        self.base = FleetConfig(
            n_boards=boards, requests_per_board=requests, traffic="poisson", seed=seed
        )
        self.pinned = golden.get(str(seed)) if golden is not None else None
        self.first: Optional[dict] = None

    def step(self, recorder) -> list:
        started = perf_counter()
        with recorder.span("runtime.traffic"):
            schedules = generate_fleet_schedules(self.base)
        digests = {}
        for policy in self.policies:
            with recorder.span("runtime.fleet"):
                report = run_fleet(dataclasses.replace(self.base, policy=policy), schedules=schedules)
            with recorder.span("runtime.digest"):
                digests[policy] = report.digest()
            recorder.facts["fleet"].append((report.totals, report.engine_stats))
        return [("pass", perf_counter() - started, digests)]

    def check(self, kind: str, digests: dict) -> list[str]:
        if self.first is None:
            self.first = digests
        failures = []
        for policy, digest in digests.items():
            if digest != self.first[policy]:
                failures.append(f"{policy}: digest changed between passes")
            elif self.pinned is not None and digest[:16] != self.pinned[policy]:
                failures.append(f"{policy}: digest {digest[:16]} != pinned {self.pinned[policy]}")
        return failures

    def final_checks(self) -> tuple[int, list[str]]:
        """Fast engine against the reference kernel on the first boards."""
        config = dataclasses.replace(self.base, n_boards=PARITY_BOARDS)
        schedules = generate_fleet_schedules(config)
        failures = []
        for policy in self.policies:
            per_policy = dataclasses.replace(config, policy=policy)
            fast = run_fleet(per_policy, schedules=schedules).digest()
            kernel = run_fleet(per_policy, engine="kernel", schedules=schedules).digest()
            if fast != kernel:
                failures.append(f"{policy}: fast digest {fast[:16]} != kernel {kernel[:16]}")
        return len(self.policies), failures

    def end_to_end(self, samples) -> dict[str, float]:
        requests = self.base.n_boards * self.base.requests_per_board * len(self.policies)
        return {
            "op_ms": quiet_time(samples) * 1e3,
            "work_per_s": requests / quiet_time(samples),
        }

    def outputs(self, facts) -> dict[str, float]:
        totals: dict[str, int] = defaultdict(int)
        vector = scalar = 0
        for report_totals, engine_stats in facts["fleet"]:
            for key, value in report_totals.items():
                totals[key] += value
            vector += engine_stats.vector_boards
            scalar += engine_stats.scalar_boards
        passes = len(facts["fleet"]) / len(self.policies)
        demands = totals["demand_requests"]
        prefetches = totals["prefetch_loads"]
        return {
            "fleet_hit_rate": (totals["instant_hits"] + totals["resident_hits"]) / demands,
            "fleet_mean_stall_us": totals["stall_ns"] / demands / 1e3,
            "runtime.fast.vector_boards": vector / passes,
            "runtime.fast.scalar_boards": scalar / passes,
            "reconfig.manager.demand_loads": totals["demand_loads"] / passes,
            "reconfig.manager.prefetch_loads": prefetches / passes,
            "reconfig.manager.useful_prefetch_ratio": (
                totals["useful_prefetches"] / prefetches if prefetches else 0.0
            ),
            "reconfig.manager.resident_hits": totals["resident_hits"] / passes,
            "reconfig.manager.evictions": totals["evictions"] / passes,
        }


class SearchWorkload(Workload):
    name = "search"
    ops_per_step = 1
    patches = [
        ("repro.search", "run_search", "search.anneal", _anneal_hook),
        ("repro.search.objective", "CostEvaluator.evaluate", "search.objective", _evaluator_hook),
        ("repro.search.objective", "adequate", "aaa.adequate", _scheduler_hook),
        ("repro.search.objective", "boundary_cost", "fabric.busmacro", None),
    ]

    def __init__(self, seed: int, golden: Optional[dict], budget: int = 800, restarts: int = 4):
        self.graph = multiregion_graph(4, 2)
        self.library = default_library()
        self.budget = budget
        self.restarts = restarts
        self.golden = golden
        self.first: Optional[str] = None

    def step(self, recorder) -> list:
        started = perf_counter()
        with recorder.span("flows.designspace"):
            report = search_multiregion(
                self.graph,
                self.library,
                device=XC2V2000,
                method="anneal",
                budget=self.budget,
                restarts=self.restarts,
                seed=SEARCH_SEED,
                max_regions=5,
                jobs=0,
            )
        elapsed = perf_counter() - started
        recorder.facts["search"].append(report.searched.total_ns)
        return [("call", elapsed, report)]

    def check(self, kind: str, report) -> list[str]:
        failures = []
        digest = report.result.digest()
        if report.searched.total_ns > report.best_fixed_cost_ns:
            failures.append(
                f"searched {report.searched.total_ns} ns worse than fixed {report.best_fixed_cost_ns} ns"
            )
        if report.result.evaluations != self.budget:
            failures.append(f"{report.result.evaluations} evaluations, budget {self.budget}")
        if self.first is None:
            self.first = digest
        if digest != self.first:
            failures.append(f"digest {digest} changed between calls")
        elif self.golden is not None and (digest, report.searched.total_ns) != (
            self.golden["digest"],
            self.golden["best_total_ns"],
        ):
            failures.append(
                f"digest {digest} / {report.searched.total_ns} ns, pinned "
                f"{self.golden['digest']} / {self.golden['best_total_ns']} ns"
            )
        return failures

    def end_to_end(self, samples) -> dict[str, float]:
        return {
            "op_ms": quiet_time(samples) * 1e3,
            "work_per_s": self.budget / quiet_time(samples),
        }

    def outputs(self, facts) -> dict[str, float]:
        stats = {id(s): s for s in facts["evaluators"]}.values()
        requested = sum(s.requested for s in stats)
        accepted = sum(a for a, _ in facts["anneal"])
        evaluations = sum(e for _, e in facts["anneal"])
        return {
            "search_best_cost_us": facts["search"][0] / 1e3,
            "search.objective.memo_hit_ratio": (
                sum(s.memo_hits for s in stats) / requested if requested else 0.0
            ),
            "search.anneal.accept_ratio": accepted / evaluations if evaluations else 0.0,
        }


def make_workload(name: str, seed: int, golden: Optional[dict] = None, **sizes):
    """Build a workload's inputs; ``sizes`` shrinks it for the self-test."""
    golden = golden or {}
    if name == "flow":
        return FlowWorkload(seed, golden.get("flow"))
    if name == "fleet-vector":
        return FleetWorkload(
            name, seed, sizes.get("boards", 1000), sizes.get("requests", 1000),
            ("none", "fixed", "lru", "lfu"), golden.get(name),
        )
    if name == "fleet-scalar":
        return FleetWorkload(
            name, seed, sizes.get("boards", 200), sizes.get("requests", 500),
            ("history", "confidence", "markov", "belady"), golden.get(name),
        )
    if name == "search":
        return SearchWorkload(
            seed, golden.get("search"), sizes.get("budget", 800), sizes.get("restarts", 4)
        )
    raise ValueError(f"unknown workload {name!r}")

#: per-layer self time metrics: (metric, unit, span name)
SELF_TIME_METRICS = (
    ("mccdma.casestudy.build_ms", "ms", "mccdma.casestudy"),
    ("flows.flow.self_ms", "ms", "flows.flow"),
    ("flows.pipeline.self_ms", "ms", "flows.pipeline"),
    ("dfg.validate.ms", "ms", "dfg.validate"),
    ("aaa.adequate.ms", "ms", "aaa.adequate"),
    ("codegen.generate_design.ms", "ms", "codegen.generate_design"),
    ("flows.modular.self_ms", "ms", "flows.modular"),
    ("fabric.synthesis.ms", "ms", "fabric.synthesis"),
    ("fabric.floorplan.ms", "ms", "fabric.floorplan"),
    ("fabric.par.ms", "ms", "fabric.par"),
    ("fabric.bitstream.ms", "ms", "fabric.bitstream"),
    ("executive.generate.ms", "ms", "executive.generate"),
    ("runtime.traffic.s", "s", "runtime.traffic"),
    ("runtime.fleet.self_s", "s", "runtime.fleet"),
    ("runtime.fast.s", "s", "runtime.fast"),
    ("runtime.digest.s", "s", "runtime.digest"),
    ("flows.designspace.self_s", "s", "flows.designspace"),
    ("search.anneal.self_s", "s", "search.anneal"),
    ("search.objective.self_s", "s", "search.objective"),
    ("fabric.busmacro.s", "s", "fabric.busmacro"),
    ("bench.other_ms", "ms", ROOT),
)

POLICIES = ("none", "fixed", "lru", "lfu", "history", "confidence", "markov", "belady")

#: every other per-layer metric, with its unit; zero on a workload that
#: does not reach the layer
OTHER_METRICS = {
    "flows.pipeline.cache_hit_ratio": "ratio",
    "aaa.adequate.calls": "count",
    "aaa.placement_eval_ratio": "ratio",
    **{f"runtime.fast.ns_per_req.{p}": "ns" for p in POLICIES},
    "runtime.fast.vector_boards": "count",
    "runtime.fast.scalar_boards": "count",
    "reconfig.manager.demand_loads": "count",
    "reconfig.manager.prefetch_loads": "count",
    "reconfig.manager.useful_prefetch_ratio": "ratio",
    "reconfig.manager.resident_hits": "count",
    "reconfig.manager.evictions": "count",
    "search.objective.memo_hit_ratio": "ratio",
    "search.anneal.accept_ratio": "ratio",
    "design_makespan_us": "sim_us",
    "design_reconfig_ms": "sim_ms",
    "fleet_hit_rate": "ratio",
    "fleet_mean_stall_us": "sim_us",
    "search_best_cost_us": "sim_us",
    "bench.traced_wall_ms": "ms",
    "bench.traced_ops": "count",
    "bench.trace_overhead_pct": "%",
}

_SCALE = {"ms": 1e6, "s": 1e9}


def layer_metrics(workload, recorder, steps: int) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics of one traced phase, per step, plus consistency problems.

    Self times are divided by the number of steps (a flow cold+warm pair, a
    fleet pass or a search call), so runs of different length compare.
    """
    spans = recorder.tracer.spans
    selves = self_times(spans)
    problems = []
    known = {layer for _, _, layer in SELF_TIME_METRICS}
    if set(selves) - known:
        problems.append(f"spans outside the layer table: {sorted(set(selves) - known)}")
    wall_ns = sum(span.duration_ns for span in spans if span.name == ROOT)
    if sum(selves.values()) != wall_ns:
        problems.append(f"self times sum to {sum(selves.values())} ns, traced wall {wall_ns} ns")

    metrics: dict[str, tuple[float, str]] = {}
    for metric, unit, layer in SELF_TIME_METRICS:
        metrics[metric] = (selves.get(layer, 0) / _SCALE[unit] / steps, unit)
    values: dict[str, float] = {name: 0.0 for name in OTHER_METRICS}
    values["bench.traced_wall_ms"] = wall_ns / 1e6 / steps
    values["bench.traced_ops"] = float(steps * workload.ops_per_step)
    values["aaa.adequate.calls"] = sum(s.name == "aaa.adequate" for s in spans) / steps
    scheduler = recorder.facts["scheduler"]
    requested = sum(stats["placements_requested"] for stats in scheduler)
    if requested:
        evaluated = sum(stats["placements_evaluated"] for stats in scheduler)
        values["aaa.placement_eval_ratio"] = evaluated / requested
    fast_ns: dict[str, int] = defaultdict(int)
    fast_requests: dict[str, int] = defaultdict(int)
    for span in spans:
        if span.name == "runtime.fast":
            fast_ns[span.attributes["policy"]] += span.duration_ns
            fast_requests[span.attributes["policy"]] += span.attributes["requests"]
    for policy, ns in fast_ns.items():
        values[f"runtime.fast.ns_per_req.{policy}"] = ns / fast_requests[policy]
    values.update(workload.outputs(recorder.facts))
    for name, unit in OTHER_METRICS.items():
        metrics[name] = (values[name], unit)
    return metrics, problems
