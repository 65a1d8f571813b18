"""Smoke test of the documented workflow: the demo scripts and every
`ptspectra ...` line of the CLI walkthrough run to completion."""

import runpy
import shlex
from pathlib import Path

import pytest

from ptspectra.cli import main

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", ["verify_all.py", "spectrum_tables.py", "contour_gallery.py"])
def test_demo_script_runs(capsys, script):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out


def _walkthrough_commands():
    lines = (DEMOS / "cli_walkthrough.sh").read_text().splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("ptspectra ")]


def test_walkthrough_covers_every_subcommand():
    assert {argv[0] for argv in _walkthrough_commands()} == {
        "spectrum", "verify", "sample", "transform"}


@pytest.mark.parametrize("argv", _walkthrough_commands(), ids=" ".join)
def test_walkthrough_command_exits_zero(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out.startswith(("family,", "N,", "x,"))
