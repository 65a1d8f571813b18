"""The three potential families on arbitrary complex coordinates.

Each family is a frozen parameter record plus a pointwise evaluator that
accepts a scalar or an ndarray of complex coordinates. Evaluators raise
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
    """alpha (inherited from the Poschl-Teller parent) and C = A + B."""

    alpha: float
    C: float

    def __post_init__(self):
        _require(math.isfinite(self.alpha) and self.alpha > 0, "alpha must be > 0")
        _require(math.isfinite(self.C), "C must be real and finite")

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
    """A(A-1)/sinh^2 r - 2i*beta cosh r / sinh r at complex r."""
    r = np.asarray(r, dtype=complex) if np.ndim(r) else complex(r)
    sh = np.sinh(r)
    _check_floor(np.abs(sh), "sinh r")
    return p.A * (p.A - 1) / sh ** 2 - 2j * p.beta * np.cosh(r) / sh


def eval_rpt(p: PoschlTellerParams, r):
    """(beta^2 - 1/4)/sinh^2 r - (alpha^2 - 1/4)/cosh^2 r at complex r."""
    r = np.asarray(r, dtype=complex) if np.ndim(r) else complex(r)
    sh, ch = np.sinh(r), np.cosh(r)
    _check_floor(np.abs(sh), "sinh r")
    _check_floor(np.abs(ch), "cosh r")
    return (p.beta ** 2 - 0.25) / sh ** 2 - (p.alpha ** 2 - 0.25) / ch ** 2


def eval_hulthen(p: HulthenParams, xi):
    """A/(1-e^{2i xi})^2 + B/(1-e^{2i xi}) at complex xi."""
    xi = np.asarray(xi, dtype=complex) if np.ndim(xi) else complex(xi)
    w = 1.0 - np.exp(2j * xi)
    _check_floor(np.abs(w), "1 - e^{2i xi}")
    return p.A / w ** 2 + p.B / w


def pt_defect(evaluator, contour, x_samples) -> float:
    """max over samples of |V(xi(-x)) - conj(V(xi(x)))|.

    `evaluator` maps complex coordinates to potential values; `contour`
    provides the PT-symmetric path through its point() method.
    """
    x = np.asarray(x_samples, dtype=float)
    v_neg = evaluator(contour.point(-x))
    v_pos = evaluator(contour.point(x))
    return float(np.max(np.abs(v_neg - np.conj(v_pos))))
