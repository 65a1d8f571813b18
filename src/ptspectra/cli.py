"""Command-line front end.

Four subcommands: `spectrum` prints closed-form level tables, `verify`
runs the finite-difference check of a family and sets the exit code,
`sample` tabulates a contour and potential (optionally one eigenfunction),
and `transform` compares the coordinate-transformed parent potential
against the closed form along the arch.

All output is CSV with 12-significant-digit scientific notation, '.'
decimal point and ',' separators, deterministic row order. Exit codes:
0 = pass, 1 = verification failure, 2 = invalid input.

Every subcommand looks its family up in `numeric.FAMILIES`: the record
supplies the parameter defaults, the parameter flags the family accepts,
the contour, the default grid and the level functions.
"""

import argparse
import dataclasses
import math
import re
import sys

import numpy as np

from .contour import arch_liouville_map, identity_liouville_map, liouville_potential
from .errors import InvalidParameters, SpectraError
from .numeric import FAMILIES, Grid, verify_family
# Not called here; perfbench/spans.py wraps these names on this module.
from .potentials import eval_eckart, eval_hulthen, eval_rpt  # noqa: F401
from .spectra import (  # noqa: F401
    eckart_spectrum,
    eckart_wavefunction,
    hulthen_spectrum,
    hulthen_wavefunction,
    rpt_spectrum,
    rpt_wavefunction,
)

# --A, --beta, --alpha, --C: every parameter-record field except epsilon,
# which is a flag of its own (an angle literal, the arch angle for Hulthen).
_PARAM_FLAGS = tuple(dict.fromkeys(
    f.name for fam in FAMILIES.values() for f in dataclasses.fields(fam.params)
    if f.name != "epsilon"))

_ANGLE_RE = re.compile(r"^\s*(?:(?P<coef>[+-]?\d+(?:\.\d+)?)\s*\*\s*)?pi\s*(?:/\s*(?P<den>\d+(?:\.\d+)?))?\s*$")


def parse_angle(text: str) -> float:
    """Radians from a plain float or a 'pi/6'-style fraction literal."""
    m = _ANGLE_RE.match(text)
    if m:
        value = math.pi * float(m.group("coef") or 1.0)
        if m.group("den"):
            value /= float(m.group("den"))
        return value
    return float(text)


def _fmt(x) -> str:
    return f"{float(x):.11e}"


def _emit(header, rows, out_path) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _setup(args):
    """(family record, parameters, contour, (xmin, xmax, n)): the flags
    given, over the family's canonical setup and default grid."""
    fam = FAMILIES[args.family]
    fields = [f.name for f in dataclasses.fields(fam.params)]
    given = {name: getattr(args, name) for name in _PARAM_FLAGS
             if getattr(args, name) is not None}
    stray = [name for name in given if name not in fields]
    if stray:
        raise InvalidParameters(f"--{stray[0]} does not apply to --family {fam.name}")
    eps = parse_angle(args.epsilon) if args.epsilon is not None else None
    if eps is not None and "epsilon" in fields:
        given["epsilon"] = eps
    params = dataclasses.replace(fam.canonical, **given)
    bounds = tuple(d if a is None else a
                   for a, d in zip((args.xmin, args.xmax, args.n), fam.grid))
    return fam, params, fam.contour(params, eps), bounds


def _aux_cell(aux, column) -> str:
    """A level's aux entry as a CSV cell: a `_re`/`_im` suffix takes that part
    of a complex entry, and a family without the entry gets an empty cell."""
    key, part = column, None
    if column.endswith(("_re", "_im")):
        key, part = column[:-3], "real" if column.endswith("_re") else "imag"
    if key not in aux:
        return ""
    return _fmt(getattr(aux[key], part) if part else aux[key])


def cmd_spectrum(args) -> int:
    fam, params, _, _ = _setup(args)
    header = ["family", "sigma", "tau", "N", "E", "kappa", *fam.aux_columns]
    rows = [
        [fam.name, str(l.qn.sigma), str(l.qn.tau), str(l.qn.N), _fmt(l.energy)]
        + [_aux_cell(l.aux, column) for column in header[5:]]
        for l in fam.spectrum(params)
    ]
    _emit(header, rows, args.out)
    return 0


def cmd_verify(args) -> int:
    _, params, contour, bounds = _setup(args)
    report = verify_family(params, contour, Grid(*bounds, contour),
                           tol_energy=args.tol_energy, tol_residual=args.tol_residual,
                           seed=args.seed)
    header = ["N", "sigma", "tau", "E_analytic", "lambda_re", "lambda_im",
              "abs_err", "residual", "converged"]
    rows = [
        [str(e.N), str(e.sigma), str(e.tau), _fmt(e.E_analytic),
         _fmt(e.eigenvalue.real), _fmt(e.eigenvalue.imag),
         _fmt(e.abs_err), _fmt(e.residual), str(int(e.converged))]
        for e in report.entries
    ]
    _emit(header, rows, args.out)
    return 0 if report.passed else 1


def cmd_sample(args) -> int:
    fam, params, contour, bounds = _setup(args)
    x = np.linspace(*bounds)
    xi = contour.point(x)
    V = fam.potential(params, xi)
    header = ["x", "xi_re", "xi_im", "V_re", "V_im"]
    cols = [x, xi.real, xi.imag, V.real, V.imag]
    if args.N is not None:
        level = _select_level(args, fam, params)
        if level is None:
            sys.stderr.write("ptspectra: invalid level for psi sampling\n")
            return 2
        psi = fam.wavefunction(params, level, contour, x)
        header += ["psi_re", "psi_im"]
        cols += [psi.real, psi.imag]
    rows = [[_fmt(c[i]) for c in cols] for i in range(len(x))]
    _emit(header, rows, args.out)
    return 0


def _select_level(args, fam, params):
    """The first level whose quantum numbers in `fam.level_keys` match the flags."""
    match = [l for l in fam.spectrum(params)
             if all(getattr(l.qn, k) == getattr(args, k) for k in fam.level_keys)]
    return match[0] if match else None


def cmd_transform(args) -> int:
    if args.family != "hulthen":
        sys.stderr.write("ptspectra: transform requires --family hulthen\n")
        return 2
    fam, params, contour, (xmin, xmax, n) = _setup(args)
    level = _select_level(args, fam, params)
    if level is None:
        sys.stderr.write("ptspectra: invalid level (not an accepted bound state)\n")
        return 2
    kappa = level.aux["kappa"]
    tb = level.aux["tau_beta"]
    alpha = params.alpha

    def W(r):
        return (tb * tb - 0.25) / np.sinh(r) ** 2 - (alpha * alpha - 0.25) / np.cosh(r) ** 2

    if args.xmin is None and args.xmax is None:
        xmin, xmax = -3.0, 3.0
    if args.n is None:
        n = 101
    x = np.linspace(xmin, xmax, n)
    xi = contour.point(x)
    if args.identity_selftest:
        lmap = identity_liouville_map(kappa)
        v_liou = liouville_potential(W, lmap, xi)
        v_closed = W(xi) + kappa ** 2
    else:
        lmap = arch_liouville_map(kappa)
        v_liou = liouville_potential(W, lmap, xi)
        # closed form of the same V - E object: Hulthen potential minus E = kappa^2
        v_closed = fam.potential(params, xi) - kappa ** 2
    diff = np.abs(v_liou - v_closed)
    header = ["x", "xi_re", "xi_im", "V_liouville_re", "V_liouville_im",
              "V_closed_re", "V_closed_im", "abs_diff"]
    rows = [
        [_fmt(x[i]), _fmt(xi[i].real), _fmt(xi[i].imag),
         _fmt(v_liou[i].real), _fmt(v_liou[i].imag),
         _fmt(v_closed[i].real), _fmt(v_closed[i].imag), _fmt(diff[i])]
        for i in range(len(x))
    ]
    _emit(header, rows, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptspectra",
        description="Closed-form spectra of complex-contour potentials, "
                    "finite-difference verification, and contour tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("spectrum", cmd_spectrum), ("verify", cmd_verify),
                     ("sample", cmd_sample), ("transform", cmd_transform)):
        p = sub.add_parser(name)
        p.set_defaults(func=fn)
        p.add_argument("--family", choices=tuple(FAMILIES), required=True)
        for flag in _PARAM_FLAGS:
            p.add_argument(f"--{flag}", type=float, default=None)
        p.add_argument("--epsilon", type=str, default=None,
                       help="contour shift in radians; 'pi/6'-style literals accepted")
        p.add_argument("--xmin", type=float, default=None)
        p.add_argument("--xmax", type=float, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--tol-energy", dest="tol_energy", type=float, default=None)
        p.add_argument("--tol-residual", dest="tol_residual", type=float, default=None)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--N", type=int, default=None, help="level selector")
        p.add_argument("--sigma", type=int, choices=(-1, 1), default=-1)
        p.add_argument("--tau", type=int, choices=(-1, 1), default=-1)
        if name == "transform":
            p.add_argument("--identity-selftest", dest="identity_selftest",
                           action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "transform" and args.N is None:
        args.N = 0
    try:
        return args.func(args)
    except (SpectraError, ValueError) as exc:
        sys.stderr.write(f"ptspectra: {type(exc).__name__}: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"ptspectra: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
