"""The three potential families on arbitrary complex coordinates.

Each family is a frozen parameter record plus a pointwise evaluator of
an ndarray of complex coordinates; a scalar coordinate follows numpy's
0-d rules and comes back as a numpy scalar. Evaluators raise
SingularPoint instead of returning huge values when the coordinate drifts
within SING_FLOOR of a pole; contour code must fail loudly there.
Eckart and Poschl-Teller take sinh r and cosh r from `contour.sinh_cosh`,
and Eckart's coth r, like Hulthen's 1/(1 - e^{2i xi}), goes through a
decaying exponential, so every evaluator stays finite far out on its path.

PT-symmetry bookkeeping lives in :func:`pt_defect`, which measures
max |V(xi(-x)) - conj(V(xi(x)))| along any PT-symmetric path.
"""

import math
from dataclasses import dataclass

import numpy as np

from .contour import sinh_cosh
from .errors import InvalidParameters, SingularPoint

SING_FLOOR = 1e-12


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidParameters(msg)


def _require_squares(record, *names) -> None:
    """InvalidParameters naming the first coupling of `names` whose square,
    which the record's potential takes, is not finite."""
    for name in names:
        x = float(getattr(record, name))  # a float's product overflows to inf, silently
        _require(math.isfinite(x * x),
                 f"the couplings are too large: {name}^2 overflows for {name} = {x:g}")


@dataclass(frozen=True)
class EckartParams:
    """Couplings A and beta (B = i*beta purely imaginary) plus the line shift.

    The shift is held to the range of its ShiftedLine contour, (0, pi/2).
    """

    A: float
    beta: float
    epsilon: float = 0.5

    def __post_init__(self):
        _require(math.isfinite(self.A), "A must be real and finite")
        _require(math.isfinite(self.beta), "beta must be real and finite")
        _require(0.0 < self.epsilon < math.pi / 2, "epsilon must lie strictly inside (0, pi/2)")
        _require_squares(self, "A")


@dataclass(frozen=True)
class PoschlTellerParams:
    """alpha = A + 1/2 and beta = B - 1/2, both positive, with the line shift."""

    alpha: float
    beta: float
    epsilon: float = 0.3

    def __post_init__(self):
        _require(math.isfinite(self.alpha) and self.alpha > 0, "alpha must be > 0")
        _require(math.isfinite(self.beta) and self.beta > 0, "beta must be > 0")
        _require(0.0 < self.epsilon < math.pi / 2, "epsilon must lie strictly inside (0, pi/2)")
        _require_squares(self, "alpha", "beta")


@dataclass(frozen=True)
class HulthenParams:
    """alpha (inherited from the Poschl-Teller parent) and C = A + B, with
    the angle of the ArchContour, held to (0, pi/2) like the line shifts."""

    alpha: float
    C: float
    epsilon: float = math.pi / 6

    def __post_init__(self):
        _require(math.isfinite(self.alpha) and self.alpha > 0, "alpha must be > 0")
        _require(math.isfinite(self.C), "C must be real and finite")
        _require(0.0 < self.epsilon < math.pi / 2, "epsilon must lie strictly inside (0, pi/2)")
        _require_squares(self, "alpha")

    @property
    def A(self) -> float:
        return 1.0 - self.alpha ** 2

    @property
    def B(self) -> float:
        return self.C - self.A


def _check_floor(mag, what: str) -> None:
    if np.min(mag) < SING_FLOOR:
        raise SingularPoint(f"|{what}| = {float(np.min(mag)):.3e} below floor {SING_FLOOR:.1e}")


def _coth(r):
    """coth r at complex r = x + iy from real kernels, through q = e^{-2|x|}
    <= 1 and m = q - 1, taken as expm1(-2|x|):
    coth r = (sign(x) (1 - q^2) - 2i q sin 2y) / ((1 - q)^2 + 4 q sin^2 y).
    Each part is a product over a sum of positive terms, so it keeps its
    relative accuracy, the far-field Im coth r of about -2 e^{-2|x|} sin 2y
    and the exact 0 of Re coth r on the imaginary axis alike, at any |x|."""
    x, y = r.real, r.imag
    q, m = np.exp(-2 * np.abs(x)), np.expm1(-2 * np.abs(x))
    s, c = np.sin(y), np.cos(y)
    return (-np.sign(x) * m * (2 + m) - 4j * q * s * c) / (m * m + 4 * q * s * s)


def eval_eckart(p: EckartParams, r):
    """A(A-1)/sinh^2 r - 2i*beta cosh r / sinh r at complex r.

    Formed as A(A-1) (1/sinh r)^2 - 2i*beta coth r, with sinh r from
    `contour.sinh_cosh` and coth r from `_coth`: cosh r / sinh r would
    lose the far-field Re V, which is as small as Im coth r, to the
    rounding of Re coth r. Finite out to |Re r| of about 710, where sinh r
    overflows (sinh^2 r overflows at half that), and exactly real on the
    imaginary axis.
    """
    r = np.asarray(r, dtype=complex)
    sh = sinh_cosh(r)[0]
    _check_floor(np.abs(sh), "sinh r")
    return p.A * (p.A - 1) * (1 / sh) ** 2 - 2j * p.beta * _coth(r)


def eval_rpt(p: PoschlTellerParams, r):
    """(beta^2 - 1/4)/sinh^2 r - (alpha^2 - 1/4)/cosh^2 r at complex r,
    formed through (1/sinh r)^2 and (1/cosh r)^2 like `eval_eckart`, with
    sinh r and cosh r from `contour.sinh_cosh`."""
    r = np.asarray(r, dtype=complex)
    sh, ch = sinh_cosh(r)
    _check_floor(np.abs(sh), "sinh r")
    _check_floor(np.abs(ch), "cosh r")
    return (p.beta ** 2 - 0.25) * (1 / sh) ** 2 - (p.alpha ** 2 - 0.25) * (1 / ch) ** 2


def eval_hulthen(p: HulthenParams, xi):
    """A/(1-e^{2i xi})^2 + B/(1-e^{2i xi}) at complex xi.

    With z = 2i xi, 1/(1-e^z) is formed through q = e^{-|Re z|} <= 1, as
    -q/(1-q) where Re z >= 0 and 1/(1-q) elsewhere, so it stays finite at
    any |Im xi|; near a pole |1 - q| is |1 - e^z|.
    """
    z = 2j * np.asarray(xi, dtype=complex)
    up = np.real(z) >= 0
    q = np.exp(np.where(up, -z, z))
    _check_floor(np.abs(1 - q), "1 - e^{2i xi}")
    g = np.where(up, -q, 1.0) / (1 - q)
    return p.A * g ** 2 + p.B * g


def pt_defect(evaluator, contour, x_samples) -> float:
    """max over samples of |V(xi(-x)) - conj(V(xi(x)))|.

    `evaluator` maps complex coordinates to potential values; `contour`
    provides the PT-symmetric path through its point() method. Both sides
    are evaluated in one call, on -x followed by x.
    """
    x = np.asarray(x_samples, dtype=float)
    v = evaluator(contour.point(np.concatenate((-x, x), axis=None)))
    v_neg, v_pos = v[:x.size], v[x.size:]
    return float(np.max(np.abs(v_neg - np.conj(v_pos))))
