"""The runtime needs numpy alone: graph algorithms are the package's own."""

import json
import os
import pathlib
import subprocess
import sys

import repro

_SNIPPET = """
import json, sys
import repro.cli, repro.flows, repro.runtime, repro.search
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] in ("networkx", "scipy"))))
"""


def test_no_networkx_or_scipy_at_runtime():
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _SNIPPET],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
        timeout=120,
    )
    assert json.loads(proc.stdout) == []
