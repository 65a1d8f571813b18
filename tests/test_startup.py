"""Start-up stays free of scipy.linalg: the closed-form commands never solve
a pencil, and LAPACK is loaded at the first eigen-solve. Each check runs in
one fresh interpreter, since this test process has scipy loaded already."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import ptspectra
from ptspectra import Grid, build_hamiltonian, solve_targeted
from ptspectra.cli import main

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(ptspectra.__file__).resolve().parent.parent

CHILD = """
import contextlib, io, json, sys
import ptspectra
from ptspectra import Grid, build_hamiltonian, solve_targeted
from ptspectra.cli import main

seen = {"after_import": "scipy.linalg" in sys.modules}
with contextlib.redirect_stdout(io.StringIO()):
    seen["closed_form_codes"] = [main(argv) for argv in json.loads(sys.argv[1])]
seen["after_closed_forms"] = "scipy.linalg" in sys.modules
H = build_hamiltonian(lambda z: z ** 2, Grid(-10.0, 10.0, 401, None))
seen["first_solve"] = repr(solve_targeted(H, 1.0).eigenvalue)
seen["after_solve"] = "scipy.linalg.lapack" in sys.modules
out = io.StringIO()
with contextlib.redirect_stdout(out):
    seen["verify_code"] = main(["verify", "--family", "eckart"])
seen["verify_out"] = out.getvalue()
seen["after_verify"] = "scipy.linalg.lapack" in sys.modules
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


def test_closed_form_commands_never_load_lapack(capsys):
    commands = _closed_form_commands()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["after_import"] is False
    assert seen["closed_form_codes"] == [0, 0, 0]
    assert seen["after_closed_forms"] is False
    assert seen["after_solve"] is True
    assert seen["verify_code"] == 0 and seen["after_verify"] is True

    # the first solve of a fresh interpreter, and verify through it, give
    # the numbers of this process bit for bit
    H = build_hamiltonian(lambda z: z ** 2, Grid(-10.0, 10.0, 401, None))
    assert seen["first_solve"] == repr(solve_targeted(H, 1.0).eigenvalue)
    capsys.readouterr()
    assert main(["verify", "--family", "eckart"]) == 0
    assert seen["verify_out"] == capsys.readouterr().out
