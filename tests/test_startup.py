"""Start-up stays free of scipy.linalg: the closed-form commands never solve
a pencil, and the first eigen-solve loads scipy's compiled LAPACK wrapper
alone, never the scipy.linalg package. The checks run in one fresh
interpreter, since this test process has scipy loaded already."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import ptspectra
from ptspectra import Grid, ShiftedLine, build_hamiltonian, solve_targeted
from ptspectra.cli import main

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(ptspectra.__file__).resolve().parent.parent

CHILD = """
import contextlib, io, json, sys
import ptspectra
from ptspectra import Grid, ShiftedLine, build_hamiltonian, solve_targeted
from ptspectra.cli import main

seen = {"after_import": "scipy.linalg" in sys.modules}
with contextlib.redirect_stdout(io.StringIO()):
    seen["closed_form_codes"] = [main(argv) for argv in json.loads(sys.argv[1])]
seen["after_closed_forms"] = "scipy.linalg" in sys.modules
H = build_hamiltonian(lambda z: z ** 2, Grid(-10.0, 10.0, 401, ShiftedLine(0.3)))
seen["first_solve"] = repr(solve_targeted(H, 1.0).eigenvalue)
seen["after_solve"] = "scipy.linalg" in sys.modules
seen["wrapper_after_solve"] = "scipy.linalg._flapack" in sys.modules
loaded = sys.modules.get("scipy.linalg._flapack")
out = io.StringIO()
with contextlib.redirect_stdout(out):
    seen["verify_code"] = main(["verify", "--family", "eckart"])
seen["verify_out"] = out.getvalue()
seen["after_verify"] = "scipy.linalg" in sys.modules
# a later import of the package reuses the wrapper module the solver loaded
import scipy.linalg.lapack
from ptspectra import numeric
seen["shared_routines"] = [a is b for a, b in zip(
    (scipy.linalg.lapack.zgttrf, scipy.linalg.lapack.zgttrs), numeric._lapack())]
# the package gets no `_flapack` attribute, but a from-import finds the module
seen["flapack_attribute"] = hasattr(scipy.linalg, "_flapack")
from scipy.linalg import _flapack
seen["from_import_is_loaded"] = _flapack is loaded
print(json.dumps(seen))
"""


def _closed_form_commands():
    """The first spectrum, sample and transform line of the CLI walkthrough."""
    first = {}
    for line in (DEMOS / "cli_walkthrough.sh").read_text().splitlines():
        if line.startswith("ptspectra "):
            argv = shlex.split(line)[1:]
            first.setdefault(argv[0], argv)
    return [first[name] for name in ("spectrum", "sample", "transform")]


@pytest.fixture(scope="module")
def seen():
    """What the fresh interpreter of CHILD saw, as a dict."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(_closed_form_commands())],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_closed_form_commands_never_load_lapack(seen, capsys):
    assert seen["after_import"] is False
    assert seen["closed_form_codes"] == [0, 0, 0]
    assert seen["after_closed_forms"] is False
    assert seen["after_solve"] is False and seen["wrapper_after_solve"] is True
    assert seen["verify_code"] == 0 and seen["after_verify"] is False

    # the first solve of a fresh interpreter, and verify through it, give
    # the numbers of this process bit for bit
    H = build_hamiltonian(lambda z: z ** 2, Grid(-10.0, 10.0, 401, ShiftedLine(0.3)))
    assert seen["first_solve"] == repr(solve_targeted(H, 1.0).eigenvalue)
    capsys.readouterr()
    assert main(["verify", "--family", "eckart"]) == 0
    assert seen["verify_out"] == capsys.readouterr().out


def test_a_later_scipy_linalg_import_shares_the_solvers_routines(seen):
    assert seen["shared_routines"] == [True, True]


def test_a_later_from_import_returns_the_loaders_module(seen):
    # the loader registered the wrapper module without binding it on the
    # package, which a later `import scipy.linalg` does not do either
    assert seen["flapack_attribute"] is False
    assert seen["from_import_is_loaded"] is True
