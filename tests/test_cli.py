import dataclasses
import math

import pytest

from ptspectra import ArchContour, Grid, HulthenParams, SampledPath, verify_family
from ptspectra.cli import build_parser, main, parse_angle
from ptspectra.numeric import FAMILIES


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(out):
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def _verify_rows(report):
    """The verify table rows of `report`, cell by cell."""
    return [
        [str(e.N), str(e.sigma), str(e.tau)]
        + [f"{v:.11e}" for v in (e.E_analytic, e.eigenvalue.real, e.eigenvalue.imag,
                                 e.abs_err, e.residual)]
        + [str(int(e.converged))]
        for e in report.entries
    ]


def test_parse_angle_literals():
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("pi/6") == pytest.approx(math.pi / 6)
    assert parse_angle("2*pi/3") == pytest.approx(2 * math.pi / 3)
    assert parse_angle("0.3") == pytest.approx(0.3)
    with pytest.raises(ValueError):
        parse_angle("pi/0")


@pytest.mark.parametrize("argv, flag, value", [
    (["spectrum", "--family", "hulthen", "--C", "-3e-05"], "C", -3e-05),
    (["sample", "--family", "rpt", "--xmin", "-1e3"], "xmin", -1e3),
    (["sample", "--family", "rpt", "--N", "-1"], "N", -1),
], ids=["C_exponent", "xmin_exponent", "N_integer"])
def test_negative_values_are_not_flags(argv, flag, value):
    # argparse's own negative-number pattern has no exponent form
    assert getattr(build_parser().parse_args(argv), flag) == value


def test_negative_exponent_form_reads_as_the_equals_form(capsys):
    argv = ["spectrum", "--family", "hulthen"]
    assert _run(capsys, argv + ["--C", "-3e-05"]) == _run(capsys, argv + ["--C=-3e-05"])
    code, _, err = _run(capsys, ["sample", "--family", "rpt", "-x", "3"])
    assert code == 2 and "unrecognized arguments: -x" in err


@pytest.mark.parametrize("command", ["spectrum", "verify"])
@pytest.mark.parametrize("flags", [["--family", "eckart", "--beta", "1e300"],
                                   ["--family", "rpt", "--alpha", "1e300"],
                                   ["--family", "hulthen", "--C", "1e300"]],
                         ids=["eckart", "rpt", "hulthen"])
def test_couplings_that_overflow_are_an_input_error(capsys, command, flags):
    code, out, err = _run(capsys, [command] + flags)
    assert code == 2 and out == ""
    assert "InvalidParameters" in err and "couplings are too large" in err


def test_potential_that_overflows_is_an_input_error(capsys):
    # eval_rpt squares beta with **, which raises OverflowError past about 1e154
    code, out, err = _run(capsys, ["sample", "--family", "rpt", "--beta", "1e300"])
    assert code == 2 and out == ""
    assert err.startswith("ptspectra: OverflowError")


def test_spectrum_eckart_table(capsys):
    code, out, _ = _run(capsys, ["spectrum", "--family", "eckart"])
    assert code == 0
    header, rows = _rows(out)
    assert header == ["family", "sigma", "tau", "N", "E", "kappa",
                      "u_re", "u_im", "v_re", "v_im"]
    assert len(rows) == 2
    assert float(rows[0][4]) == pytest.approx(-3.75)
    assert float(rows[1][4]) == pytest.approx(0.0, abs=1e-12)
    assert rows[0][5] == ""  # no kappa column content for this family


def test_spectrum_rpt_empty_family(capsys):
    code, out, _ = _run(capsys, ["spectrum", "--family", "rpt",
                                 "--alpha", "0.5", "--beta", "0.5"])
    assert code == 0
    header, rows = _rows(out)
    assert header[-1] == "kappa"
    assert rows == []


def test_spectrum_hulthen_row(capsys):
    code, out, _ = _run(capsys, ["spectrum", "--family", "hulthen"])
    assert code == 0
    header, rows = _rows(out)
    assert header == ["family", "sigma", "tau", "N", "E", "kappa", "s", "tau_beta"]
    assert len(rows) == 1
    r = rows[0]
    assert r[1] == "-1" and r[3] == "0"
    assert float(r[4]) == pytest.approx(2.25)
    assert float(r[5]) == pytest.approx(1.5)
    assert float(r[6]) == pytest.approx(-1.0)
    assert float(r[7]) == pytest.approx(-0.5)


def test_verify_eckart_defaults_pass(capsys):
    code, out, _ = _run(capsys, ["verify", "--family", "eckart"])
    assert code == 0
    header, rows = _rows(out)
    assert header[:4] == ["N", "sigma", "tau", "E_analytic"]
    assert len(rows) == 2
    assert max(float(r[6]) for r in rows) <= 1e-5
    assert all(r[8] == "1" for r in rows)


def test_verify_coarse_grid_fails_with_rows(capsys):
    code, out, _ = _run(capsys, ["verify", "--family", "eckart", "--n", "101"])
    assert code == 1
    _, rows = _rows(out)
    assert len(rows) == 2  # failures are reported per level, not swallowed


def test_unknown_family_rejected(capsys):
    code, _, err = _run(capsys, ["spectrum", "--family", "morse"])
    assert code == 2
    assert "invalid choice" in err


def test_bad_epsilon_literal_rejected(capsys):
    for literal in ("junk", "pi/0"):
        code, _, err = _run(capsys, ["spectrum", "--family", "eckart", "--epsilon", literal])
        assert code == 2
        assert err.startswith("ptspectra: ValueError:")


@pytest.mark.parametrize("argv", [
    ["spectrum", "--family", "rpt", "--A", "7", "--C", "3"],
    ["verify", "--family", "eckart", "--alpha", "2"],
    ["sample", "--family", "hulthen", "--beta", "1"],
])
def test_flags_of_another_family_rejected(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("ptspectra:") and "does not apply" in err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--family", "eckart", "--n", "5"],
    ["spectrum", "--family", "eckart", "--N", "3"],
    ["spectrum", "--family", "eckart", "--tol-energy", "9"],
    ["verify", "--family", "eckart", "--N", "0"],
    ["verify", "--family", "rpt", "--sigma", "1"],
    ["sample", "--family", "rpt", "--tol-residual", "1"],
    ["transform", "--family", "hulthen", "--tol-energy", "1"],
    ["verify", "--family", "eckart", "--seed", "4"],
    ["transform", "--family", "hulthen", "--identity-selftest"],
])
def test_flags_the_subcommand_does_not_read_rejected(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


def test_consecutive_calls_share_no_parse_state(capsys):
    """The parser is built once per process; no call leaves state on it."""
    assert build_parser() is build_parser()
    _, with_psi, _ = _run(capsys, ["sample", "--family", "rpt", "--N", "1", "--n", "3"])
    code, out, _ = _run(capsys, ["sample", "--family", "rpt", "--n", "3"])
    assert code == 0
    assert _rows(with_psi)[0][-2:] == ["psi_re", "psi_im"]
    assert _rows(out)[0] == ["x", "xi_re", "xi_im", "V_re", "V_im"]
    _, windowed, _ = _run(capsys, ["verify", "--family", "eckart", "--n", "1001"])
    code, out, _ = _run(capsys, ["verify", "--family", "eckart"])
    report = verify_family(FAMILIES["eckart"].canonical)
    assert code == 0 and out != windowed
    assert [r[4] for r in _rows(out)[1]] == [f"{e.eigenvalue.real:.11e}" for e in report.entries]
    code, out, err = _run(capsys, ["verify", "--family", "eckart", "--N", "0"])
    assert code == 2 and out == "" and "unrecognized arguments" in err
    assert _run(capsys, ["spectrum", "--family", "eckart"])[0] == 0


def test_family_choices_are_the_registry():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    for parser in sub.choices.values():
        family = next(a for a in parser._actions if a.dest == "family")
        assert tuple(family.choices) == tuple(FAMILIES)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_bare_verify_matches_library_on_canonical_setup(capsys, name):
    code, out, _ = _run(capsys, ["verify", "--family", name])
    report = verify_family(FAMILIES[name].canonical)
    assert code == (0 if report.passed else 1)
    _, rows = _rows(out)
    assert rows == _verify_rows(report)


@pytest.mark.parametrize("argv, name", [
    (["verify", "--family", "rpt", "--n", "1001"], "rpt"),
    (["verify", "--family", "eckart", "--xmin", "-18"], "eckart"),
])
def test_verify_window_flags_keep_the_uniform_window(capsys, argv, name):
    code, out, _ = _run(capsys, argv)
    fam = FAMILIES[name]
    report = verify_family(fam.canonical, Grid(*fam.grid, fam.contour(fam.canonical)))
    assert code == (0 if report.passed else 1)
    _, rows = _rows(out)
    assert [r[4] for r in rows] == [f"{e.eigenvalue.real:.11e}" for e in report.entries]


@pytest.mark.parametrize("angle, eps", [("pi/5", math.pi / 5), ("1.2", 1.2)],
                         ids=["pi/5", "1.2"])
def test_verify_hulthen_arch_angle_uses_the_rule_grid(capsys, angle, eps):
    """The arch angle is a field of the Hulthen record, so bare verify with
    --epsilon sizes the rule grid on that arch, as verify_family does."""
    code, out, _ = _run(capsys, ["verify", "--family", "hulthen", "--epsilon", angle])
    report = verify_family(HulthenParams(2.0, 2.0, epsilon=eps))
    assert report.passed and report.grid.contour.contour == ArchContour(eps)
    assert code == 0
    _, rows = _rows(out)
    assert rows == _verify_rows(report)


def test_sample_arch_apex(capsys):
    code, out, _ = _run(capsys, ["sample", "--family", "hulthen",
                                 "--epsilon", "pi/6",
                                 "--xmin", "-5", "--xmax", "5", "--n", "11"])
    assert code == 0
    header, rows = _rows(out)
    assert header == ["x", "xi_re", "xi_im", "V_re", "V_im"]
    assert len(rows) == 11
    mid = rows[5]
    assert float(mid[0]) == pytest.approx(0.0, abs=1e-12)
    assert float(mid[2]) == pytest.approx(math.log(2.0), abs=1e-10)


def test_sample_shifted_line_height(capsys):
    code, out, _ = _run(capsys, ["sample", "--family", "eckart",
                                 "--xmin", "-2", "--xmax", "2", "--n", "9"])
    assert code == 0
    _, rows = _rows(out)
    assert all(float(r[2]) == pytest.approx(-0.5, abs=1e-14) for r in rows)


def test_sample_with_eigenfunction_columns(capsys):
    code, out, _ = _run(capsys, ["sample", "--family", "rpt", "--N", "0",
                                 "--sigma", "-1", "--tau", "-1",
                                 "--xmin", "-6", "--xmax", "6", "--n", "241"])
    assert code == 0
    header, rows = _rows(out)
    assert header[-2:] == ["psi_re", "psi_im"]

    def mag(r):
        return abs(complex(float(r[5]), float(r[6])))

    peak = max(mag(r) for r in rows)
    assert mag(rows[0]) < 1e-6 * peak
    assert mag(rows[-1]) < 1e-6 * peak


def test_sample_rejects_missing_level(capsys):
    code, _, err = _run(capsys, ["sample", "--family", "rpt", "--N", "9"])
    assert code == 2
    assert "invalid level" in err


@pytest.mark.parametrize("argv", [
    # the canonical Hulthen setup has no tau=+1 level
    ["sample", "--family", "hulthen", "--N", "0", "--tau", "1"],
    # Eckart levels carry sigma = tau = +1
    ["sample", "--family", "eckart", "--N", "1", "--sigma", "-1"],
])
def test_sample_level_flags_must_all_match(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "invalid level" in err


def test_sample_sigma_and_tau_select_a_level_without_N(capsys):
    # the canonical rpt setup has no (+,+) level
    code, out, err = _run(capsys, ["sample", "--family", "rpt", "--sigma", "1",
                                   "--tau", "1", "--n", "3"])
    assert code == 2
    assert out == ""
    assert "invalid level" in err
    code, out, _ = _run(capsys, ["sample", "--family", "rpt", "--sigma", "-1", "--n", "3"])
    assert code == 0
    header, rows = _rows(out)
    assert header[-2:] == ["psi_re", "psi_im"]
    fam = FAMILIES["rpt"]
    level = fam.spectrum(fam.canonical)[0]
    assert level.qn.label() == "(-,-,0)"
    contour = fam.contour(fam.canonical)
    psi = fam.wavefunction(fam.canonical, level,
                           SampledPath(contour.point(Grid(*fam.grid[:2], 3).points())))
    assert [r[-2:] for r in rows] == [[f"{v.real:.11e}", f"{v.imag:.11e}"] for v in psi]


def test_level_flags_left_out_match_any_value(capsys):
    code, out, _ = _run(capsys, ["sample", "--family", "rpt", "--N", "0", "--n", "21"])
    assert code == 0
    given = ["sample", "--family", "rpt", "--N", "0", "--sigma", "-1", "--tau", "-1",
             "--n", "21"]
    assert _run(capsys, given)[1] == out


@pytest.mark.parametrize("name", list(FAMILIES))
def test_sample_every_canonical_level_as_the_benchmark_asks(capsys, name):
    """The argv shape of the tabulate benchmark: every parameter flag, --n,
    and the level's own N, sigma and tau."""
    fam = FAMILIES[name]
    params = fam.canonical
    flags = []
    for f in dataclasses.fields(params):
        flags += [f"--{f.name}", repr(float(getattr(params, f.name)))]
    x = Grid(*fam.grid[:2], 5).points()
    for level in fam.spectrum(params):
        qn = level.qn
        code, out, err = _run(capsys, ["sample", "--family", name, *flags, "--n", "5",
                                       "--N", str(qn.N), "--sigma", str(qn.sigma),
                                       "--tau", str(qn.tau)])
        assert code == 0, err
        header, rows = _rows(out)
        assert header[-2:] == ["psi_re", "psi_im"]
        contour = fam.contour(params)
        psi = fam.wavefunction(params, level, SampledPath(contour.point(x)))
        assert [r[-2:] for r in rows] == [[f"{v.real:.11e}", f"{v.imag:.11e}"] for v in psi]


@pytest.mark.parametrize("argv, message", [
    (["sample", "--family", "hulthen", "--n", "2"], "grid needs at least 3 points"),
    (["sample", "--family", "eckart", "--xmin", "5", "--xmax", "-5"],
     "x_max must exceed x_min"),
    (["transform", "--family", "hulthen", "--n", "0"], "grid needs at least 3 points"),
    (["sample", "--family", "rpt", "--xmax", "inf", "--n", "5"], "grid bounds must be finite"),
    (["verify", "--family", "eckart", "--xmax", "inf", "--n", "5"], "grid bounds must be finite"),
    (["sample", "--family", "rpt", "--n", "100000000000"],
     "grid of 100000000000 points exceeds the cap of 10000000"),
    (["verify", "--family", "eckart", "--n", "100000000000"],
     "grid of 100000000000 points exceeds the cap of 10000000"),
])
def test_sample_and_transform_windows_are_grids(capsys, argv, message):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"ptspectra: ValueError: {message}\n"


@pytest.mark.parametrize("flags", [
    ["--tol-energy", "nan"], ["--tol-residual", "-1"], ["--tol-energy", "inf"],
])
def test_verify_bad_tolerance_is_an_input_error(capsys, flags):
    code, out, err = _run(capsys, ["verify", "--family", "eckart", *flags])
    assert code == 2
    assert out == ""
    assert err.startswith("ptspectra: InvalidParameters: tolerances must be finite and > 0")


def test_verify_looser_tolerance_passes(capsys):
    code, out, err = _run(capsys, ["verify", "--family", "rpt", "--tol-energy", "2"])
    assert code == 0 and err == ""
    _, rows = _rows(out)
    assert rows and all(r[-1] == "1" for r in rows)


def test_verify_subnormal_residual_tolerance_is_a_failed_verdict(capsys):
    code, out, err = _run(capsys, ["verify", "--family", "eckart", "--tol-residual", "1e-320"])
    assert code == 1 and err == ""
    header, rows = _rows(out)
    assert header[-1] == "converged" and len(rows) == 2
    assert all(r[-1] == "0" for r in rows)


def test_verify_failed_levels_print_nan_and_inf(capsys):
    code, out, _ = _run(capsys, ["verify", "--family", "rpt", "--n", "3"])
    assert code == 1
    _, rows = _rows(out)
    assert len(rows) == 3
    assert all(r[4:] == ["nan", "nan", "inf", "inf", "0"] for r in rows)


def test_verify_too_few_nodes_is_a_failed_verdict(capsys):
    code, out, err = _run(capsys, ["verify", "--family", "hulthen",
                                   "--xmin", "-1", "--xmax", "1", "--n", "3"])
    assert code == 1
    assert err == ""
    _, rows = _rows(out)
    assert len(rows) == 1 and rows[0][-1] == "0"


def test_negative_zero_cell(capsys):
    # V is real at the origin of the shifted line; its imaginary part is -0.0
    code, out, _ = _run(capsys, ["sample", "--family", "eckart",
                                 "--xmin", "-2", "--xmax", "2", "--n", "9"])
    assert code == 0
    _, rows = _rows(out)
    assert rows[4][0] == "0.00000000000e+00"
    assert rows[4][4] == "-0.00000000000e+00"


def test_transform_matches_closed_form(capsys):
    code, out, _ = _run(capsys, ["transform", "--family", "hulthen"])
    assert code == 0
    header, rows = _rows(out)
    assert header[0] == "x" and header[-1] == "abs_diff"
    assert len(rows) == 101
    assert float(rows[0][0]) == pytest.approx(-3.0)
    assert float(rows[-1][0]) == pytest.approx(3.0)
    assert max(float(r[-1]) for r in rows) <= 1e-6


def test_transform_window_falls_back_per_field(capsys):
    code, out, _ = _run(capsys, ["transform", "--family", "hulthen", "--xmin", "-1"])
    assert code == 0
    _, rows = _rows(out)
    assert len(rows) == 101
    assert float(rows[0][0]) == pytest.approx(-1.0)
    assert float(rows[-1][0]) == pytest.approx(3.0)


def test_transform_requires_hulthen_and_valid_level(capsys):
    code, _, err = _run(capsys, ["transform", "--family", "eckart"])
    assert code == 2
    code, _, err = _run(capsys, ["transform", "--family", "hulthen", "--N", "7"])
    assert code == 2
    assert "level" in err


def test_out_files_are_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["verify", "--family", "eckart", "--xmin", "-12", "--xmax", "12",
            "--n", "501"]
    assert main(argv + ["--out", str(a)]) in (0, 1)
    assert main(argv + ["--out", str(b)]) in (0, 1)
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(b"N,sigma,tau,")
