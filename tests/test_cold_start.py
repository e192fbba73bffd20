"""What a cold start loads: in a fresh interpreter, importing boxshift and
running the commands that call no finite-difference oracle (``hydrogen``,
``validate``) load no numpy and no scipy module at all; the oracle loads
numpy and ``scipy.linalg`` on its first call, and still none of scipy's
integrate, optimize or special subpackages; the first Agmon quadrature (a
well ``shift``) loads ``scipy.integrate``.  Nor does a cold start compile
the checked leg (``dop853.checked_leg``), which only potentials without a
source run: the Coulomb ``hydrogen`` legs inline V.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import boxshift

SRC = str(Path(boxshift.__file__).resolve().parents[1])

# Each stage runs in order in one interpreter and records its exit code and
# which of these subpackages are loaded after it, and, apart, every scipy
# module and whether any numpy module is loaded after it.
SCRIPT = """
import contextlib, gc, io, json, sys

DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.special")
CHECKED = "<dop853: qq = q(x)>"  # the checked leg's compiled file name
stages, scipy, numpy, checked = {}, {}, {}, {}

def record(stage, code=None):
    stages[stage] = {"code": code,
                     "loaded": [m for m in DEFERRED if m in sys.modules]}
    scipy[stage] = sorted(m for m in sys.modules
                          if m == "scipy" or m.startswith("scipy."))
    numpy[stage] = any(m == "numpy" or m.startswith("numpy.")
                       for m in sys.modules)
    checked[stage] = any(
        getattr(getattr(f, "__code__", None), "co_filename", "") == CHECKED
        for f in gc.get_objects())

import boxshift
record("import boxshift")
import boxshift.cli
record("import boxshift.cli")
for argv in (
    ["hydrogen", "--n", "1", "--ell", "0", "--h", "1", "--Z", "2",
     "--R-grid", "8,14"],
    ["validate", "--potential", "x^2 + x^4", "--domain=-1,1"],
    ["oracle", "--potential", "harmonic", "--domain=-1,1", "--m", "0",
     "--h", "0.1"],
    ["shift", "--potential", "x^2 + x^4", "--domain=-1,1", "--m", "0",
     "--h", "0.1"],
):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = boxshift.cli.main(argv)
    record(argv[0], code)
print(json.dumps([stages, scipy, numpy, checked]))
"""


@pytest.fixture(scope="module")
def records():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def stages(records):
    return records[0]


@pytest.fixture(scope="module")
def scipy_loaded(records):
    return records[1]


@pytest.fixture(scope="module")
def numpy_loaded(records):
    return records[2]


@pytest.fixture(scope="module")
def checked_leg_built(records):
    return records[3]


@pytest.mark.parametrize("stage", ["import boxshift", "import boxshift.cli"])
def test_import_loads_no_deferred_scipy_subpackage(stages, stage):
    assert stages[stage]["loaded"] == []


@pytest.mark.parametrize("command", ["hydrogen", "validate", "oracle"])
def test_commands_without_quadrature_load_no_deferred_subpackage(stages,
                                                                 command):
    assert stages[command] == {"code": 0, "loaded": []}


def test_a_well_shift_loads_scipy_integrate_and_succeeds(stages):
    assert stages["shift"]["code"] == 0
    assert "scipy.integrate" in stages["shift"]["loaded"]


@pytest.mark.parametrize("stage", ["import boxshift", "import boxshift.cli",
                                   "hydrogen", "validate"])
def test_a_cold_start_without_the_oracle_loads_no_scipy(scipy_loaded, stage):
    assert scipy_loaded[stage] == []


def test_the_oracle_loads_scipy_linalg_and_succeeds(stages, scipy_loaded):
    assert stages["oracle"]["code"] == 0
    assert "scipy.linalg" in scipy_loaded["oracle"]


@pytest.mark.parametrize("stage", ["import boxshift", "import boxshift.cli",
                                   "hydrogen", "validate"])
def test_a_cold_start_without_the_oracle_loads_no_numpy(numpy_loaded, stage):
    assert numpy_loaded[stage] is False


@pytest.mark.parametrize("command", ["oracle", "shift"])
def test_commands_that_build_arrays_load_numpy_and_succeed(stages,
                                                           numpy_loaded,
                                                           command):
    assert stages[command]["code"] == 0
    assert numpy_loaded[command] is True


@pytest.mark.parametrize("stage", ["import boxshift", "import boxshift.cli",
                                   "hydrogen"])
def test_a_cold_hydrogen_run_builds_no_checked_leg(checked_leg_built, stage):
    assert checked_leg_built[stage] is False
