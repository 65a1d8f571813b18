"""Command-line front end.

Four subcommands: `spectrum` prints closed-form level tables, `verify`
runs the finite-difference check of a family and sets the exit code,
`sample` tabulates a contour and potential (optionally one eigenfunction),
and `transform` compares the coordinate-transformed parent potential
against the closed form along the arch.

All output is CSV with '.' decimal point and ',' separators and
deterministic row order. Every number is written byte for byte as
`'%.11e' % x` writes it (12 significant digits): numpy builds the digits
of whole blocks of rows, and the cells it cannot round exactly (zeros,
non-finite values, |x| outside [1e-280, 1e280], cells within 1e-3 of a
rounding tie) go through `'%.11e' %` itself. Each cell of a block is one
20-byte record, five uint32 slots of text padded with zero bytes and the
separator in its last byte, looked up from digit tables; the block's
records are written in row order with the zero bytes dropped. Exit
codes: 0 = pass, 1 = verification failure, 2 = invalid input.

Every subcommand looks its family up in `numeric.FAMILIES`: the record
supplies the parameter defaults, the parameter flags the family accepts,
the contour, the default window and the level functions. `--epsilon` is
the record's epsilon: the line shift for Eckart and Poschl-Teller, the
arch angle for Hulthen. `verify` without `--xmin`, `--xmax` or `--n`
verifies on the library's stretched rule grid, as
`verify_family(params)` does; with any of them it verifies on the
uniform window. Each subcommand
registers only the flags it reads; any other flag is an input error.
`verify`, `sample` and `transform` all take their window through `Grid`,
so each rejects the same windows. `sample` and `transform` select the
first level, in spectrum order, that matches every one of `--N`,
`--sigma` and `--tau` given.
"""

import argparse
import contextlib
import dataclasses
import functools
import math
import re
import sys

import numpy as np

from .contour import arch_map, liouville_potential
from .errors import InvalidParameters, SpectraError
from .numeric import FAMILIES, Grid, verify_family
from .potentials import PoschlTellerParams
# perfbench/spans.py wraps these names on this module. Only eval_rpt is
# called here (transform's parent potential); the others are kept for it.
from .potentials import eval_eckart, eval_hulthen, eval_rpt  # noqa: F401
from .spectra import SampledPath
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
    f.name for fam in FAMILIES.values() for f in dataclasses.fields(fam.canonical)
    if f.name != "epsilon"))

# transform's own sampling window; it does not use the family's verify grid
_TRANSFORM_GRID = (-3.0, 3.0, 101)

# What argparse takes for a negative number, not a flag, after an option that
# wants a value: '-' then a digit, or '.' and a digit. Its own pattern,
# ^-\d+$|^-\d*\.\d+$, has no exponent, so it read "--C -3e-05" as two flags.
_NEGATIVE_NUMBER_RE = re.compile(r"-\.?\d")

_ANGLE_RE = re.compile(r"^\s*(?:(?P<coef>[+-]?\d+(?:\.\d+)?)\s*\*\s*)?pi\s*(?:/\s*(?P<den>\d+(?:\.\d+)?))?\s*$")


def parse_angle(text: str) -> float:
    """Radians from a plain float or a 'pi/6'-style fraction literal."""
    m = _ANGLE_RE.match(text)
    if m:
        value = math.pi * float(m.group("coef") or 1.0)
        if m.group("den"):
            den = float(m.group("den"))
            if den == 0.0:
                raise ValueError(f"angle {text!r} divides by zero")
            value /= den
        return value
    return float(text)


# The '%.11e' writer. A cell is a record of _SLOTS uint32 slots, 20 bytes: up
# to 19 bytes of text, zero-padded, and the separator in the last byte. A
# number fills the slots "sd.d", "dddd", "dddd", "dde+" (or "dde-") and "ddd\0"
# ("\0dd\0" for an exponent below 100 in size), s being '-' or a zero byte.
# The zero bytes are dropped when a block of rows is written, so the
# exponent's digits must end before the separator's byte.
_SLOTS = 5
_BLOCK = 1024  # rows formatted and written at a time


def _digits(k, n):
    """The n ASCII codes of the digits of the integers `k`, held as floats,
    zero-padded; floor of an exact quotient is the integer quotient."""
    return [np.floor(k / 10 ** i) - 10 * np.floor(k / 10 ** (i + 1)) + ord("0")
            for i in range(n - 1, -1, -1)]


def _slots(*codes):
    """uint32 slots whose 4 bytes are the byte `codes`, arrays or scalars."""
    out = np.empty((max(map(np.size, codes)), 4))
    for j, c in enumerate(codes):
        out[:, j] = c
    return out.astype(np.uint8).view(np.uint32).ravel()


_K = np.arange(200.0)
_NEG = _K >= 100
_D0, _D1 = _digits(_K % 100, 2)
_E = np.arange(301.0)
_E0, _E1, _E2 = _digits(_E, 3)
# _HEAD[d0d1 + 100 (x < 0)], _QUAD[dddd], _TAIL[dd + 100 (exponent < 0)], _EXP[|exponent|]
_HEAD = _slots(np.where(_NEG, ord("-"), 0), _D0, ord("."), _D1)
_QUAD = _slots(*_digits(np.arange(10000.0), 4))
_TAIL = _slots(_D0, _D1, ord("e"), np.where(_NEG, ord("-"), ord("+")))
_EXP = _slots(np.where(_E < 100, 0, _E0), _E1, _E2, 0)
# _POW10[k + 300] is 10^k correctly rounded, for k in [-300, 300]
_POW10 = np.array([float(f"1e{k}") for k in range(-300, 301)])


def _format(v, out):
    """Write into `out`, of shape v.shape + (_SLOTS,), the records of
    `'%.11e' % x` for the floats `v`, each record's last byte left zero for
    its separator.

    With e = floor(log10|x|), corrected once so that s = |x| 10^(11-e) lies
    in [1e11, 1e12) (log10 may round across a power of ten), the digits are
    those of m = rint(s), m = 1e12 carrying into the exponent. s carries two
    roundings (10^k and the product), so it is within 2.3e-4 of the exact
    scaled value, and rint(s) is the correctly rounded m unless the fraction
    of s is within 1e-3 of 1/2. Those near-ties, exact ties among them, and
    every zero, non-finite or |x| outside [1e-280, 1e280] are formatted by
    `'%.11e' %` itself.
    """
    a = np.abs(v)
    fast = (a >= 1e-280) & (a <= 1e280)  # False for +-0, nan and +-inf
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    s = a * _POW10[311 - e]
    e += s >= 1e12
    e -= s < 1e11
    np.take(_POW10, 311 - e, out=s)
    s *= a
    # the temporaries are reused from here on, so a block's working set stays
    # a few arrays: m takes a's memory, and q below takes s's
    m = np.rint(s, out=a)
    s -= m
    np.abs(s, out=s)  # the distance of s from its nearest integer m
    fast &= 0.5 - s > 1e-3
    carry = m == 1e12
    e += carry
    m[carry] = 1e11
    # m = d0d1 | dddd | dddd | dd, each part split off the top into q; floor
    # of an exact quotient of integers below 2^53 is their integer quotient
    q = np.floor(np.divide(m, 1e10, out=s), out=s)
    m -= 1e10 * q
    q += 100 * np.signbit(v)
    out[..., 0] = _HEAD[q.astype(np.intp)]
    np.floor(np.divide(m, 1e6, out=q), out=q)
    m -= 1e6 * q
    out[..., 1] = _QUAD[q.astype(np.intp)]
    np.floor(np.divide(m, 1e2, out=q), out=q)
    m -= 1e2 * q
    out[..., 2] = _QUAD[q.astype(np.intp)]
    m += 100 * (e < 0)
    out[..., 3] = _TAIL[m.astype(np.intp)]
    out[..., 4] = _EXP[np.abs(e)]
    if not fast.all():
        slow = np.nonzero(~fast)
        text = np.array(["%.11e" % x for x in v[slow].tolist()], dtype=f"S{4 * _SLOTS}")
        out[slow] = text.view(np.uint32).reshape(-1, _SLOTS)


def _emit(header, columns, out_path) -> None:
    """Write the table whose columns are given, to `out_path` or stdout.

    A column holds either str cells, written as given, or numbers, each
    written byte for byte as `'%.11e' % x` writes it: `_format` builds the
    digits with numpy and falls back on `'%.11e' %` for zeros, non-finite
    values, |x| outside [1e-280, 1e280] and cells within 1e-3 of a
    rounding tie. Rows are formatted and written _BLOCK at a time, each
    block as one (rows, columns, _SLOTS) uint32 array of cell records in
    row order: `_format` writes the numbers into it, the str cells are
    copied in, the separators go into each record's last byte, and the
    block is written with its zero bytes dropped. A str cell longer than 19
    bytes widens every record of the table.
    """
    rows = len(columns[0])
    numbers = [j for j, c in enumerate(columns)
               if isinstance(c, np.ndarray) or not (len(c) and isinstance(c[0], str))]
    texts = {j: np.array(c, dtype="S") for j, c in enumerate(columns) if j not in numbers}
    width = max([_SLOTS] + [t.itemsize // 4 + 1 for t in texts.values()])
    texts = {j: t.astype(f"S{4 * width}").view(np.uint32).reshape(rows, width)
             for j, t in texts.items()}
    with open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, _BLOCK):
            stop = min(start + _BLOCK, rows)
            values = np.ones((stop - start, len(columns)))  # 1.0 holds a str cell's place
            for j in numbers:
                values[:, j] = columns[j][start:stop]
            block = np.empty(values.shape + (width,), dtype=np.uint32)
            _format(values, block[..., :_SLOTS])
            block[..., _SLOTS:] = 0
            for j, t in texts.items():
                block[:, j] = t[start:stop]
            ends = block.view(np.uint8)[..., -1]
            ends[...] = ord(",")
            ends[:, -1] = ord("\n")
            fh.write(block.tobytes().translate(None, b"\0").decode("ascii"))


def _setup(args):
    """(family record, parameters, contour): the flags given, over the
    family's canonical setup."""
    fam = FAMILIES[args.family]
    fields = [f.name for f in dataclasses.fields(fam.canonical)]
    given = {name: getattr(args, name) for name in _PARAM_FLAGS
             if getattr(args, name) is not None}
    stray = [name for name in given if name not in fields]
    if stray:
        raise InvalidParameters(f"--{stray[0]} does not apply to --family {fam.name}")
    if args.epsilon is not None:
        given["epsilon"] = parse_angle(args.epsilon)
    params = dataclasses.replace(fam.canonical, **given)
    return fam, params, fam.contour(params)


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
    # no window flag: the library's own rule grid
    windowed = any(v is not None for v in (args.xmin, args.xmax, args.n))
    grid = Grid(*_bounds(args, fam.grid), contour) if windowed else None
    report = verify_family(params, grid, tol_energy=args.tol_energy,
                           tol_residual=args.tol_residual)
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
    if any(getattr(args, k) is not None for k in ("N", "sigma", "tau")):
        level = _select_level(args, fam, params)
        if level is None:
            sys.stderr.write("ptspectra: invalid level for psi sampling\n")
            return 2
        psi = fam.wavefunction(params, level, SampledPath(xi))
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
    x = Grid(*_bounds(args, _TRANSFORM_GRID)).points()
    xi = contour.point(x)
    # closed form of the same V - E object: Hulthen potential minus E = kappa^2
    v_closed = fam.potential(params, xi) - kappa ** 2
    v_liou = liouville_potential(lambda r: eval_rpt(parent, r), kappa, arch_map, xi)
    diff = np.abs(v_liou - v_closed)
    header = ["x", "xi_re", "xi_im", "V_liouville_re", "V_liouville_im",
              "V_closed_re", "V_closed_im", "abs_diff"]
    columns = [x, xi.real, xi.imag, v_liou.real, v_liou.imag,
               v_closed.real, v_closed.imag, diff]
    _emit(header, columns, args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="ptspectra",
        description="Closed-form spectra of complex-contour potentials, "
                    "finite-difference verification, and contour tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("spectrum", cmd_spectrum), ("verify", cmd_verify),
                     ("sample", cmd_sample), ("transform", cmd_transform)):
        p = sub.add_parser(name)
        p._negative_number_matcher = _NEGATIVE_NUMBER_RE
        p.set_defaults(func=fn)
        p.add_argument("--family", choices=tuple(FAMILIES), required=True)
        for flag in _PARAM_FLAGS:
            p.add_argument(f"--{flag}", type=float, default=None)
        p.add_argument("--epsilon", type=str, default=None,
                       help="line shift or arch angle in radians; 'pi/6'-style literals accepted")
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
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (SpectraError, ValueError, OverflowError) as exc:
        sys.stderr.write(f"ptspectra: {type(exc).__name__}: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"ptspectra: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
