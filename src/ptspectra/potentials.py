"""The three potential families on arbitrary complex coordinates.

Each family is a frozen parameter record plus a pointwise evaluator of
an ndarray of complex coordinates; a scalar coordinate follows numpy's
0-d rules and comes back as a numpy scalar. Evaluators raise
SingularPoint instead of returning huge values when the coordinate drifts
within SING_FLOOR of a pole; contour code must fail loudly there.

PT-symmetry bookkeeping lives in :func:`pt_defect`, which measures
max |V(xi(-x)) - conj(V(xi(x)))| along any PT-symmetric path.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters, SingularPoint

SING_FLOOR = 1e-12


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidParameters(msg)


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

    @property
    def A(self) -> float:
        return 1.0 - self.alpha ** 2

    @property
    def B(self) -> float:
        return self.C - self.A


def _check_floor(mag, what: str) -> None:
    if np.min(mag) < SING_FLOOR:
        raise SingularPoint(f"|{what}| = {float(np.min(mag)):.3e} below floor {SING_FLOOR:.1e}")


def eval_eckart(p: EckartParams, r):
    """A(A-1)/sinh^2 r - 2i*beta cosh r / sinh r at complex r.

    Formed as A(A-1) (1/sinh r)^2 - 2i*beta / tanh r: finite out to |Re r|
    of about 710, where sinh r overflows (sinh^2 r overflows at half that),
    and exactly real on the imaginary axis.
    """
    r = np.asarray(r, dtype=complex)
    sh = np.sinh(r)
    _check_floor(np.abs(sh), "sinh r")
    return p.A * (p.A - 1) * (1 / sh) ** 2 - 2j * p.beta / np.tanh(r)


def eval_rpt(p: PoschlTellerParams, r):
    """(beta^2 - 1/4)/sinh^2 r - (alpha^2 - 1/4)/cosh^2 r at complex r,
    formed through (1/sinh r)^2 and (1/cosh r)^2 like `eval_eckart`."""
    r = np.asarray(r, dtype=complex)
    sh, ch = np.sinh(r), np.cosh(r)
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
    provides the PT-symmetric path through its point() method.
    """
    x = np.asarray(x_samples, dtype=float)
    v_neg = evaluator(contour.point(-x))
    v_pos = evaluator(contour.point(x))
    return float(np.max(np.abs(v_neg - np.conj(v_pos))))
