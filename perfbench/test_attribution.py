"""Self-tests of the benchmark's layer attribution.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

The main test slows one wrapped layer per workload by 20 % of its own
duration and asserts that the per-layer report names that layer as the
top mover.  The workloads are shrunk so the test runs in seconds; at each
size the delayed layer is still a third or more of the step.  Baseline
and delayed measurements alternate over five rounds; the test compares
each layer's share of the traced wall within a round and takes the median
change, so a change in host speed between rounds does not pick the mover.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from layers import ROOT, Recorder, self_times, write_trace  # noqa: E402
from workloads import layer_metrics, make_workload  # noqa: E402

#: paired baseline/delayed measurements per workload
ROUNDS = 5
#: workload -> (sizes, layer to slow, steps per measurement)
DELAYED = {
    "flow": ({}, "fabric.bitstream", 10),
    "fleet-vector": ({"boards": 1000, "requests": 100}, "runtime.traffic", 2),
    "fleet-scalar": ({"boards": 20, "requests": 200}, "runtime.fast", 2),
    "search": ({"budget": 120, "restarts": 2}, "aaa.adequate", 2),
}


def top_movers(before: dict[str, float], after: dict[str, float]) -> list[tuple[str, float]]:
    """Layers ordered by how much their value grew from ``before`` to ``after``."""
    layers = set(before) | set(after)
    moves = [(layer, after.get(layer, 0.0) - before.get(layer, 0.0)) for layer in layers]
    return sorted(moves, key=lambda item: item[1], reverse=True)


def traced_steps(workload, steps: int, delay=None) -> Recorder:
    recorder = Recorder(delay=delay)
    with recorder.installed(workload.patches), recorder.phase():
        for _ in range(steps):
            for kind, _, output in workload.step(recorder):
                assert workload.check(kind, output) == []
    return recorder


def self_time_shares(workload, steps: int, delay=None) -> dict[str, float]:
    """Each layer's share of the traced wall (a uniform host slowdown cancels)."""
    selves = self_times(traced_steps(workload, steps, delay).tracer.spans)
    wall = sum(selves.values())
    return {layer: ns / wall for layer, ns in selves.items()}


@pytest.mark.parametrize("name", sorted(DELAYED))
def test_injected_delay_names_the_slowed_layer(name):
    sizes, layer, steps = DELAYED[name]
    workload = make_workload(name, seed=1, **sizes)
    workload.prime()
    self_time_shares(workload, 1)
    moves: dict[str, list[float]] = {}
    for _ in range(ROUNDS):
        before = self_time_shares(workload, steps)
        after = self_time_shares(workload, steps, (layer, 0.2))
        for moved, change in top_movers(before, after):
            moves.setdefault(moved, []).append(change)
    median_moves = {moved: statistics.median(changes) for moved, changes in moves.items()}
    top = max(median_moves, key=median_moves.get)
    assert top == layer, sorted(median_moves.items(), key=lambda item: -item[1])[:3]


@pytest.mark.parametrize("name", ["flow", "search"])
def test_self_times_add_up_and_trace_validates(name, tmp_path):
    workload = make_workload(name, seed=2, budget=60, restarts=2)
    workload.prime()
    recorder = traced_steps(workload, 2)
    metrics, problems = layer_metrics(workload, recorder, 2)
    assert problems == []
    wall = sum(s.duration_ns for s in recorder.tracer.spans if s.name == ROOT)
    assert sum(self_times(recorder.tracer.spans).values()) == wall
    assert metrics["bench.traced_wall_ms"][0] == pytest.approx(wall / 1e6 / 2)
    assert write_trace(tmp_path / "trace.json", recorder, {"workload": name}) == []


def test_printed_metrics_match_benchmark_json():
    import run

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workload = make_workload("flow", seed=0)
    workload.prime()
    metrics, _ = layer_metrics(workload, traced_steps(workload, 1), 1)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: unit for name, (_, unit) in metrics.items()
    }
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        **run.END_TO_END_UNITS, "setup_s": "s", "peak_rss_mb": "MB"
    }


def test_patches_are_restored():
    from repro.flows import flow as flow_module

    workload = make_workload("flow", seed=0)
    original = flow_module.adequate
    with Recorder().installed(workload.patches):
        assert flow_module.adequate is not original
    assert flow_module.adequate is original


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    completed = subprocess.run(
        [sys.executable, *command[1:], "--workload", "flow", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
