"""The runtime needs numpy alone, and the low layers import no higher one."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

_SNIPPET = """
import json, sys
import repro.cli, repro.flows, repro.runtime, repro.search
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] in ("networkx", "scipy"))))
"""

_SUBPACKAGES = """
import json, sys
import {module}
print(json.dumps(sorted({{name.split(".")[1] for name in sys.modules if name.startswith("repro.")}})))
"""


def _run(snippet: str) -> list:
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
        timeout=120,
    )
    return json.loads(proc.stdout)


def test_no_networkx_or_scipy_at_runtime():
    assert _run(_SNIPPET) == []


@pytest.mark.parametrize(
    "module, loaded",
    [("repro.obs", ["obs"]), ("repro.sim", ["obs", "sim"])],
)
def test_obs_and_sim_load_no_higher_layer(module, loaded):
    """``repro.sim`` reads its trace back as ``repro.obs`` spans; neither may
    pull in another subpackage, or the sim -> obs import could become a cycle."""
    assert _run(_SUBPACKAGES.format(module=module)) == loaded
