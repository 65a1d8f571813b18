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
the contour, the default grid and the level functions. Each subcommand
registers only the flags it reads; any other flag is an input error.
`verify`, `sample` and `transform` all take their window through `Grid`,
so each rejects the same windows. `sample` and `transform` select the
first level, in spectrum order, that matches every one of `--N`,
`--sigma` and `--tau` given.
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
from .potentials import PoschlTellerParams
# perfbench/spans.py wraps these names on this module. Only eval_rpt is
# called here (transform's parent potential); the others are kept for it.
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

# transform's own sampling window; it does not use the family's verify grid
_TRANSFORM_GRID = (-3.0, 3.0, 101)

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


def _emit(header, columns, out_path) -> None:
    """Write the table whose columns are given. A column holds either str
    cells, written as given, or numbers, written through one `%.11e` row
    template."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    row = ",".join("%s" if c and isinstance(c[0], str) else "%.11e" for c in columns)
    text = "\n".join([",".join(header)] + [row % cells for cells in zip(*columns)]) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _setup(args):
    """(family record, parameters, contour): the flags given, over the
    family's canonical setup."""
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
    return fam, params, fam.contour(params, eps)


def _bounds(args, default):
    """(xmin, xmax, n): each flag given, else its entry of `default`."""
    return tuple(d if a is None else a for a, d in zip((args.xmin, args.xmax, args.n), default))


def cmd_spectrum(args) -> int:
    fam, params, _ = _setup(args)
    levels = fam.spectrum(params)
    header = ["family", "sigma", "tau", "N", "E", "kappa", *fam.aux_columns]
    columns = [[fam.name] * len(levels)]
    columns += [[str(getattr(l.qn, k)) for l in levels] for k in ("sigma", "tau", "N")]
    columns.append([l.energy for l in levels])
    # aux entries: a `_re`/`_im` suffix takes that part of a complex entry,
    # and a family without the entry gets empty cells
    for column in header[5:]:
        key, part = column, "real"
        if column.endswith(("_re", "_im")):
            key, part = column[:-3], "real" if column.endswith("_re") else "imag"
        columns.append([getattr(l.aux[key], part) if key in l.aux else "" for l in levels])
    _emit(header, columns, args.out)
    return 0


def cmd_verify(args) -> int:
    fam, params, contour = _setup(args)
    report = verify_family(params, Grid(*_bounds(args, fam.grid), contour),
                           tol_energy=args.tol_energy, tol_residual=args.tol_residual)
    header = ["N", "sigma", "tau", "E_analytic", "lambda_re", "lambda_im",
              "abs_err", "residual", "converged"]
    entries = report.entries
    columns = [[str(getattr(e, k)) for e in entries] for k in ("N", "sigma", "tau")]
    columns += [[e.E_analytic for e in entries], [e.eigenvalue.real for e in entries],
                [e.eigenvalue.imag for e in entries], [e.abs_err for e in entries],
                [e.residual for e in entries], [str(int(e.converged)) for e in entries]]
    _emit(header, columns, args.out)
    return 0 if report.passed else 1


def cmd_sample(args) -> int:
    fam, params, contour = _setup(args)
    x = Grid(*_bounds(args, fam.grid)).points()
    xi = contour.point(x)
    V = fam.potential(params, xi)
    header = ["x", "xi_re", "xi_im", "V_re", "V_im"]
    columns = [x, xi.real, xi.imag, V.real, V.imag]
    if args.N is not None:
        level = _select_level(args, fam, params)
        if level is None:
            sys.stderr.write("ptspectra: invalid level for psi sampling\n")
            return 2
        psi = fam.wavefunction(params, level, contour, x)
        header += ["psi_re", "psi_im"]
        columns += [psi.real, psi.imag]
    _emit(header, columns, args.out)
    return 0


def _select_level(args, fam, params):
    """The first level, in spectrum order, that matches every one of
    `--N`, `--sigma` and `--tau` given; None if no level does."""
    given = [(k, getattr(args, k)) for k in ("N", "sigma", "tau")
             if getattr(args, k) is not None]
    return next((l for l in fam.spectrum(params)
                 if all(getattr(l.qn, k) == v for k, v in given)), None)


def cmd_transform(args) -> int:
    if args.family != "hulthen":
        sys.stderr.write("ptspectra: transform requires --family hulthen\n")
        return 2
    fam, params, contour = _setup(args)
    level = _select_level(args, fam, params)
    if level is None:
        sys.stderr.write("ptspectra: invalid level (not an accepted bound state)\n")
        return 2
    kappa = level.aux["kappa"]
    # the Poschl-Teller parent of this level; the arch angle is its line shift
    parent = PoschlTellerParams(params.alpha, abs(level.aux["tau_beta"]), contour.epsilon)

    def W(r):
        return eval_rpt(parent, r)

    x = Grid(*_bounds(args, _TRANSFORM_GRID)).points()
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
    columns = [x, xi.real, xi.imag, v_liou.real, v_liou.imag,
               v_closed.real, v_closed.imag, diff]
    _emit(header, columns, args.out)
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
        p.add_argument("--out", type=str, default=None)
        if name == "spectrum":
            continue
        p.add_argument("--xmin", type=float, default=None)
        p.add_argument("--xmax", type=float, default=None)
        p.add_argument("--n", type=int, default=None)
        if name == "verify":
            p.add_argument("--tol-energy", dest="tol_energy", type=float, default=None)
            p.add_argument("--tol-residual", dest="tol_residual", type=float, default=None)
            continue
        p.add_argument("--N", type=int, default=0 if name == "transform" else None,
                       help="level selector")
        p.add_argument("--sigma", type=int, choices=(-1, 1), default=None)
        p.add_argument("--tau", type=int, choices=(-1, 1), default=None)
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
