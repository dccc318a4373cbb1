"""Start-up cost: importing the CLI and running the scipy-free methods must
not load scipy; only the methods that call ``scipy.special`` load it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
# The modules the benchmark's tracer looks up in sys.modules.
MODULES = ["cli", "numerics", "combine", "partial_conjunction", "procedures",
           "pc_testing", "replicability", "simulation"]

SCRIPT = """
import json, sys
import pcfdr.cli
from pcfdr.cli import run

matrix, out, modules = sys.argv[1], sys.argv[2], sys.argv[3:]
state = {"import": "scipy" in sys.modules,
         "missing": [m for m in modules if "pcfdr." + m not in sys.modules]}
assert run(["replicate", matrix, "--q", "0.1", "--method", "simes", "--out", out]) == 0
assert run(["combine", matrix, "--method", "simes", "--u", "2", "--out", out]) == 0
state["simes"] = "scipy" in sys.modules
assert run(["combine", matrix, "--method", "fisher", "--out", out]) == 0
state["fisher"] = "scipy" in sys.modules
print(json.dumps(state))
"""


@pytest.fixture(scope="module")
def state(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("startup")
    matrix = tmp / "m.csv"
    matrix.write_text("hit,0.0001,0.0002,0.3\nmiss,0.8,0.9,0.4\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(matrix), str(tmp / "out"), *MODULES],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_cli_import_loads_every_module_but_not_scipy(state):
    assert state["import"] is False
    assert state["missing"] == []


def test_simes_replicate_and_combine_do_not_load_scipy(state):
    assert state["simes"] is False


def test_fisher_combine_loads_scipy(state):
    assert state["fisher"] is True
