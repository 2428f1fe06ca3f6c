"""Regenerate ``golden.json``: the outputs the benchmark pins.

Usage, from the root of a checkout::

    python3 perfbench/make_golden.py --seeds 64

Pins the flow's makespan and D1 reconfiguration latency, each fleet
workload's per-policy ``FleetReport.digest()`` (first 16 hex digits) for
traffic seeds ``0 .. seeds-1``, and the search's digest and best cost.
Run it only when a change is meant to alter these outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from layers import NullRecorder  # noqa: E402
from workloads import make_workload  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=64)
    args = parser.parse_args()
    recorder = NullRecorder()

    (_, _, flow), _ = make_workload("flow", 0).step(recorder)
    golden: dict = {
        "flow": {
            "makespan_ns": flow.makespan_ns,
            "d1_reconfig_ns": flow.modular.reconfig_latency_ns["D1"],
        }
    }
    for name in ("fleet-vector", "fleet-scalar"):
        golden[name] = {}
        for seed in range(args.seeds):
            [(_, _, digests)] = make_workload(name, seed).step(recorder)
            golden[name][str(seed)] = {p: d[:16] for p, d in digests.items()}
            print(f"{name} seed {seed}: {golden[name][str(seed)]}", file=sys.stderr)
    [(_, _, search)] = make_workload("search", 0).step(recorder)
    golden["search"] = {
        "digest": search.result.digest(),
        "best_total_ns": search.searched.total_ns,
    }
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
