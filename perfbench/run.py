"""Benchmark driver: one workload, one process, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload flow --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no spans recorded.
``--trace 1`` spends half the time untraced and half traced, prints the
per-layer metrics, and writes the span tree as Chrome trace JSON under
``perfbench/out/``.  Both check every output; the last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT_DIR = HERE.parent
SRC = ROOT_DIR / "src"
GOLDEN = HERE / "golden.json"
WORKLOADS = ("flow", "fleet-vector", "fleet-scalar", "search")
END_TO_END_UNITS = {"op_ms": "ms", "work_per_s": "1/s"}
#: subprocesses per run that each import the program and build the inputs
SETUP_PROBES = 3


def host_fingerprint() -> dict:
    import numpy

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe-setup", action="store_true",
        help="import the program, build the workload's inputs, print 'ready' and exit",
    )
    return parser.parse_args(argv)


def measure_setup(args) -> float:
    """Median seconds from process start to inputs ready, over fresh processes."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--probe-setup",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT_DIR) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - started)
            child.stdout.read()
            if child.wait() != 0 or line.strip() != "ready":
                raise RuntimeError(f"setup probe failed: exit {child.returncode}, {line!r}")
    return statistics.median(samples)


def run_phase(workload, recorder, seconds: float) -> tuple[list, int, list[str]]:
    """Steps until the next one would overrun ``seconds``; at least one."""
    samples, attempted, failures = [], 0, []
    started = time.perf_counter()
    with recorder.phase():
        while True:
            step_started = time.perf_counter()
            attempted += workload.ops_per_step
            try:
                produced = workload.step(recorder)
            except Exception as err:  # a failing step is counted, not fatal
                failures.append(f"step raised {type(err).__name__}: {err}")
                produced = []
            for kind, elapsed, output in produced:
                samples.append((kind, elapsed, step_started - started))
                failures.extend(workload.check(kind, output))
            now = time.perf_counter()
            if now - started + (now - step_started) > seconds:
                break
    return samples, attempted, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from layers import NullRecorder, Recorder, write_trace
    from workloads import layer_metrics, make_workload

    golden = json.loads(GOLDEN.read_text())
    workload = make_workload(args.workload, args.seed, golden)
    if args.probe_setup:
        print("ready", flush=True)
        return 0
    host = host_fingerprint()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("host " + json.dumps(host, sort_keys=True))

    workload.prime()
    problems: list[str] = []
    if args.trace:
        samples, attempted, failures = run_phase(workload, NullRecorder(), args.seconds / 2)
        recorder = Recorder()
        with recorder.installed(workload.patches):
            traced, traced_attempted, traced_failures = run_phase(workload, recorder, args.seconds / 2)
        attempted += traced_attempted
        failures += traced_failures
        steps = traced_attempted // workload.ops_per_step
        metrics, problems = layer_metrics(workload, recorder, steps)
        untraced_ms = workload.end_to_end(samples)["op_ms"]
        traced_ms = workload.end_to_end(traced)["op_ms"]
        metrics["bench.trace_overhead_pct"] = ((traced_ms / untraced_ms - 1) * 100, "%")
        trace_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        trace_problems = write_trace(
            trace_path, recorder, {"workload": args.workload, "seed": args.seed, "host": host}
        )
        problems += [f"trace file: {p}" for p in trace_problems]
        print(f"trace: {trace_path.relative_to(ROOT_DIR)} ({len(recorder.tracer.spans)} spans)")
    else:
        samples, attempted, failures = run_phase(workload, NullRecorder(), args.seconds)
        metrics = {
            name: (value, END_TO_END_UNITS[name])
            for name, value in workload.end_to_end(samples).items()
        }
        metrics["setup_s"] = (measure_setup(args), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    try:
        checked, final_failures = workload.final_checks()
    except Exception as err:  # a crashing check is a failed check
        checked, final_failures = 1, [f"final checks raised {type(err).__name__}: {err}"]
    attempted += checked
    failures += final_failures
    failed = min(len(failures), attempted)
    print(f"operations {attempted}, failed {failed}")
    for kind in sorted({kind for kind, _, _ in samples}):
        times = sorted(elapsed * 1e3 for k, elapsed, _ in samples if k == kind)
        p95 = times[max(0, math.ceil(0.95 * len(times)) - 1)]
        print(f"  {kind}: n={len(times)} p50 {statistics.median(times):.3f} ms, "
              f"p95 {p95:.3f} ms ({len(times) - math.ceil(0.95 * len(times))} samples beyond)")
    for message in failures + problems:
        print(f"FAIL {message}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:42s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
