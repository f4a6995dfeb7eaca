"""``import repro`` loads only the dependencies ``pyproject.toml`` declares.

numpy is the one declared dependency. scipy backs only the two LP solvers,
``repro.serving.cluster.aware_capacity`` and
``repro.serving.provisioning.provision_min_cost``, which import it where
they call it, so the CLI and every experiment run without it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.config import RMC1_SMALL
from repro.hw import BROADWELL
from repro.serving import (
    SLA,
    MachinePool,
    PricedGeneration,
    WorkloadDemand,
    aware_capacity,
    provision_min_cost,
)

SRC = Path(repro.__file__).resolve().parent.parent

ADDED_PACKAGES = """
import json, sys
before = set(sys.modules)
import repro
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(added - set(sys.stdlib_module_names))))
"""

#: Runs ``python -m repro`` with the arguments after ``-c`` and scipy blocked.
CLI_WITHOUT_SCIPY = """
import runpy, sys
sys.modules["scipy"] = None
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""


def _fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this ``repro``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_import_adds_only_numpy_and_the_standard_library():
    proc = _fresh_python(ADDED_PACKAGES)
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout)
    assert "repro" in added
    assert set(added) <= {"numpy", "repro"}, added


@pytest.mark.parametrize(
    "argv, expected",
    [(["list"], "figure11"), (["figure11"], "Figure 11b small FC")],
    ids=["list", "figure11"],
)
def test_cli_runs_without_scipy(argv, expected):
    proc = _fresh_python(CLI_WITHOUT_SCIPY, *argv)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout


@pytest.fixture
def no_scipy(monkeypatch):
    """Block scipy; ``scipy.optimize`` too, since this process may hold it."""
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)


DEMANDS = [WorkloadDemand(RMC1_SMALL, batch_size=4, sla=SLA(0.001), weight=1.0)]


@pytest.mark.parametrize(
    "solve",
    [
        lambda: aware_capacity([MachinePool(BROADWELL, 1)], DEMANDS),
        lambda: provision_min_cost([PricedGeneration(BROADWELL, 1.0)], DEMANDS, 1e5),
    ],
    ids=["aware_capacity", "provision_min_cost"],
)
def test_lp_solvers_need_scipy(no_scipy, solve):
    with pytest.raises(ImportError, match="scipy"):
        solve()
