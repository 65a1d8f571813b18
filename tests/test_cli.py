import dataclasses
import math

import numpy as np
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
    # each potential squares these couplings: past about 1e154 the square
    # is not a float, and the record names the coupling
    for family, coupling in (("rpt", "beta"), ("rpt", "alpha"), ("hulthen", "alpha"),
                             ("eckart", "A")):
        code, out, err = _run(capsys, ["sample", "--family", family, f"--{coupling}", "1e300"])
        assert code == 2 and out == ""
        assert err == (f"ptspectra: InvalidParameters: the couplings are too large: "
                       f"{coupling}^2 overflows for {coupling} = 1e+300\n")


_SAMPLED = "the sampled columns are"
_PENCIL = "the path, Q or W is"


@pytest.mark.parametrize("argv, what, x", [
    (["sample", "--family", "hulthen", "--xmin", "-1e3", "--n", "3"], _SAMPLED, "-1000"),
    (["sample", "--family", "hulthen", "--xmin", "-1e3", "--n", "3", "--N", "0"], _SAMPLED,
     "-1000"),
    (["transform", "--family", "hulthen", "--xmin", "-1e3", "--n", "3"], _SAMPLED, "-1000"),
    (["sample", "--family", "rpt", "--xmin", "-1e3", "--n", "3"], _SAMPLED, "-1000"),
    (["sample", "--family", "eckart", "--xmin", "-712", "--xmax", "712", "--n", "4001",
      "--N", "0"], _SAMPLED, "-712"),
    (["verify", "--family", "eckart", "--xmin", "-1e3"], _PENCIL, "-1000"),
    (["verify", "--family", "hulthen", "--xmin", "-1e3"], _PENCIL, "-1000"),
    # an arch angle of 1e-300 puts the apex at infinity: the probe that
    # sizes the rule grid refuses it before any grid is built
    (["verify", "--family", "hulthen", "--epsilon", "1e-300"], _PENCIL, "0"),
], ids=["sample", "sample_psi", "transform", "sample_rpt", "sample_eckart_edge", "verify",
        "verify_hulthen", "verify_probe"])
def test_a_window_past_the_far_field_is_an_input_error(capsys, argv, what, x):
    # the arch's sinh^2 overflows past |x| of about 355 and the line's sinh
    # past 710; the error, not a numpy warning, reaches the caller. A verify
    # pencil that is not finite is bad input (exit 2), not a ShiftSingular
    # failure of every level (exit 1)
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"ptspectra: InvalidParameters: {what} not finite at x = {x}\n"


def test_a_window_inside_the_far_field_samples_without_a_warning(capsys):
    # sinh x and cosh x are finite out to |x| of about 710
    code, out, err = _run(capsys, ["sample", "--family", "eckart", "--xmin", "-700",
                                   "--xmax", "700", "--n", "4001", "--N", "0"])
    assert code == 0 and err == ""
    _, rows = _rows(out)
    assert len(rows) == 4001 and np.isfinite(np.array(rows, dtype=float)).all()


def test_a_level_past_its_far_field_fails_without_a_warning(capsys):
    # the (-,-,1) wave function is not finite at the window's ends: that
    # level fails as an input error of its own, and the others keep theirs
    code, out, err = _run(capsys, ["verify", "--family", "rpt", "--xmin", "-400",
                                   "--xmax", "400", "--n", "4001"])
    assert code == 1 and err == ""
    _, rows = _rows(out)
    assert [r[:3] + r[-1:] for r in rows] == [["0", "-1", "-1", "0"], ["1", "-1", "-1", "0"],
                                              ["0", "-1", "1", "1"]]
    assert rows[1][4:8] == ["nan", "nan", "inf", "inf"]


def test_spectrum_eckart_table(capsys):
    code, out, _ = _run(capsys, ["spectrum", "--family", "eckart"])
    assert code == 0
    header, rows = _rows(out)
    assert header == ["family", "sigma", "tau", "N", "E", "kappa",
                      "u_re", "u_im", "v_re", "v_im"]
    assert len(rows) == 2
    assert float(rows[0][4]) == pytest.approx(-3.75)
    assert float(rows[1][4]) == pytest.approx(0.0, abs=1e-12)
    # every family's levels carry their decay rate as kappa; Eckart's is D = A - N - 1
    assert [float(r[5]) for r in rows] == [2.0, 1.0]


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
    for name, parser in sub.choices.items():
        family = next(a for a in parser._actions if a.dest == "family")
        # transform rebuilds Hulthen from its Poschl-Teller parent
        assert tuple(family.choices) == (("hulthen",) if name == "transform" else tuple(FAMILIES))


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
    assert err == "ptspectra: InvalidParameters: invalid level: no rpt level matches --N 9\n"


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
    assert err.startswith("ptspectra: InvalidParameters: invalid level: ")


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


_LC, _LD = np.clongdouble, np.longdouble  # the extended-precision reference


def _long_jacobi(n, a, b, y):
    """P_n^{(a, b)}(y) = sum_s (a+s+1)_{n-s} (a+b+n+1)_s / (s! (n-s)!) ((y-1)/2)^s."""
    total = np.zeros_like(y)
    for s in range(n + 1):
        c = _LC(1)
        for j in range(s + 1, n + 1):
            c *= _LC(a) + j
        for j in range(1, s + 1):
            c *= _LC(a) + _LC(b) + n + j
        total = total + c / (math.factorial(s) * math.factorial(n - s)) * ((y - 1) / 2) ** s
    return total


def _long_log(z):
    """log z continued along the samples, from the principal value at the first."""
    logs = np.log(z)
    phase = logs.imag.astype(float)
    return logs + 2j * np.pi * np.round((np.unwrap(phase) - phase) / (2 * math.pi))


def _long_parent(n, tb, sa, r):
    return np.exp((_LD(tb) + 0.5) * _long_log(np.sinh(r)) + (_LD(sa) + 0.5) * _long_log(np.cosh(r))
                  ) * _long_jacobi(n, tb, sa, np.cosh(2 * r))


def _long_closed_forms(name, p, level, xi):
    """(V, psi) at the points xi from the closed forms, in extended precision."""
    z, qn = xi.astype(_LC), level.qn
    if name == "eckart":
        A, u, v = _LD(p.A), _LC(level.aux["u"]), _LC(level.aux["v"])
        V = A * (A - 1) / np.sinh(z) ** 2 - 2j * _LD(p.beta) / np.tanh(z)
        psi = np.exp((v - u) * z - (u + v) * _long_log(np.sinh(z))) \
            * _long_jacobi(qn.N, 2 * u, 2 * v, 1 / np.tanh(z))
    elif name == "rpt":
        V = (_LD(p.beta) ** 2 - 0.25) / np.sinh(z) ** 2 \
            - (_LD(p.alpha) ** 2 - 0.25) / np.cosh(z) ** 2
        psi = _long_parent(qn.N, qn.tau * p.beta, qn.sigma * p.alpha, z)
    else:
        g = 1 / (1 - np.exp(2j * z))
        V = _LD(p.A) * g ** 2 + _LD(p.B) * g
        r = np.arcsinh(-1j * np.exp(1j * z))
        psi = _long_parent(qn.N, level.aux["tau_beta"], qn.sigma * p.alpha, r) \
            / np.exp(_long_log(1j * np.tanh(r)) / 2)
    return V, psi


@pytest.mark.parametrize("name", list(FAMILIES))
def test_sample_cells_match_extended_precision(capsys, name):
    # every V and psi cell of every canonical level, on 201 points, lies within
    # one unit of its 12th significant digit of the extended-precision value.
    # A part that vanishes in exact arithmetic (Im V at x = 0, where xi is
    # imaginary, and Im psi of the real Hulthen level) is rounding noise: it
    # is held to 1e-14 of the complex value, above the 15 eps relative error
    # that the rounding of a far-field exponent leaves in psi
    fam = FAMILIES[name]
    params = fam.canonical
    x = Grid(*fam.grid[:2], 201).points()
    xi = fam.contour(params).point(x)
    for level in fam.spectrum(params):
        qn = level.qn
        code, out, err = _run(capsys, ["sample", "--family", name, "--n", "201",
                                       "--N", str(qn.N), "--sigma", str(qn.sigma),
                                       "--tau", str(qn.tau)])
        assert code == 0 and err == ""
        header, rows = _rows(out)
        cells = np.array(rows, dtype=float)
        for w, parts in zip(_long_closed_forms(name, params, level, xi), (("V_re", "V_im"),
                                                                           ("psi_re", "psi_im"))):
            floor = 1e-14 * np.abs(w)
            for part, want in zip(parts, (w.real, w.imag)):
                with np.errstate(divide="ignore"):  # a zero part has no digits
                    digit = 10.0 ** (np.floor(np.log10(np.abs(want.astype(float)))) - 11)
                got = cells[:, header.index(part)]
                assert np.all(np.abs(got - want) <= np.maximum(digit, floor)), (qn.label(), part)


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
    (["verify", "--family", "eckart", "--n", "6000000"],
     "verifying refines 6000000 points to 2n - 1 = 11999999, past the cap of 10000000, "
     "so n may be at most 5000000"),
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


def test_sample_of_a_large_exponent_level_is_finite(capsys):
    # tau beta = -6190: unscaled, the closed form overflows on |x| <= 0.684;
    # scaled by a positive constant, its shape is finite everywhere
    code, out, err = _run(capsys, ["sample", "--family", "hulthen",
                                   "--alpha", "4.999153220255224", "--C", "-10.482834084742091",
                                   "--n", "4001", "--N", "2", "--sigma", "-1", "--tau", "-1"])
    assert code == 0 and err == ""
    _, rows = _rows(out)
    psi = np.array([[float(c) for c in r[5:]] for r in rows])
    assert np.all(np.isfinite(psi)) and np.abs(psi).max() > 0


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


@pytest.mark.parametrize("eps", [1e-5, 0.01, math.pi / 6, 1.0, 1.42, 1.5, 1.55])
def test_transform_holds_over_the_whole_angle_range(capsys, eps):
    # the arch map's central differences lose accuracy near pi/2; the
    # transform itself does not
    code, out, err = _run(capsys, ["transform", "--family", "hulthen", "--epsilon", repr(eps)])
    assert code == 0 and err == ""
    header, rows = _rows(out)
    assert len(rows) == 101
    col = {name: header.index(name) for name in ("V_closed_re", "V_closed_im", "abs_diff")}
    for r in rows:
        v_closed = abs(complex(float(r[col["V_closed_re"]]), float(r[col["V_closed_im"]])))
        assert float(r[col["abs_diff"]]) <= 1e-10 * max(1.0, v_closed)


def test_transform_window_falls_back_per_field(capsys):
    code, out, _ = _run(capsys, ["transform", "--family", "hulthen", "--xmin", "-1"])
    assert code == 0
    _, rows = _rows(out)
    assert len(rows) == 101
    assert float(rows[0][0]) == pytest.approx(-1.0)
    assert float(rows[-1][0]) == pytest.approx(3.0)


def test_transform_requires_hulthen_and_valid_level(capsys):
    code, _, err = _run(capsys, ["transform", "--family", "eckart"])
    assert code == 2 and "invalid choice: 'eckart'" in err
    code, _, err = _run(capsys, ["transform", "--family", "hulthen", "--N", "7"])
    assert code == 2
    assert "level" in err
    assert err == "ptspectra: InvalidParameters: invalid level: no hulthen level matches --N 7\n"


def test_an_out_path_in_a_missing_directory_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.csv"
    code, out, err = _run(capsys, ["spectrum", "--family", "eckart", "--out", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("ptspectra: FileNotFoundError: ") and str(path) in err


def test_a_near_zero_arch_angle_fails_verification_quietly(capsys):
    # the level is typed, not a numpy warning: exit 1 and nothing on stderr
    code, out, err = _run(capsys, ["verify", "--family", "hulthen", "--epsilon", "1e-100"])
    assert code == 1
    assert err == ""
    assert out.startswith("N,sigma,tau,")


@pytest.mark.parametrize("argv, where", [
    (["transform", "--n", "5"], "on the requested points"),
    (["sample", "--N", "0", "--n", "5"], "along the sample path"),
], ids=["transform", "sample"])
def test_an_arch_map_below_the_metric_floor_is_an_input_error(capsys, argv, where):
    # tan(eps) ~ 1e-11: the arch map's r' at the apex is below the 1e-10 floor
    code, out, err = _run(capsys, argv + ["--family", "hulthen", "--epsilon", "1e-11"])
    assert code == 2 and out == ""
    assert err == f"ptspectra: SingularPoint: r'(xi) vanishes {where}\n"


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
