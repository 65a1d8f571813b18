"""Complex integration paths and the Liouville change-of-variables engine.

Two path families are provided: the shifted line x - i*eps and the
down-bent arch obtained from it by sinh(x - i*eps) = -i e^{i xi(x)}.
Both are PT-symmetric: xi(-x) = -xi(x)*.

Branch policy, used everywhere complex powers or roots appear along a
path: principal value at the first sample, then phase continuity sample
to sample (unwrapping by whole turns). An adjacent phase jump that stays
above pi/2 after unwrapping means the sampling cannot fix a branch and
raises BranchDiscontinuity. Sample sequences are ordered by increasing
parameter and must not be reordered mid-stream.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BranchDiscontinuity,
    DerivativeInconsistency,
    InvalidParameters,
    SingularPoint,
)

_METRIC_FLOOR = 1e-12
_FD_STEP = 1e-5
_FD_TOL = 1e-6


@dataclass(frozen=True)
class ShiftedLine:
    """Straight path xi(x) = x - i*epsilon, unit derivative."""

    epsilon: float

    def __post_init__(self):
        if not (0.0 < self.epsilon < math.pi / 2):
            raise InvalidParameters("epsilon must lie strictly inside (0, pi/2)")

    def point(self, x):
        x = np.asarray(x, dtype=float) if np.ndim(x) else float(x)
        return x - 1j * self.epsilon

    def derivative(self, x):
        if np.ndim(x):
            return np.ones(np.shape(x), dtype=complex)
        return 1.0 + 0.0j


@dataclass(frozen=True)
class ArchContour:
    """Down-bent arch xi(x) = v(x) - i u(x).

    v = arctan(tanh x / tan eps), u = (1/2) ln(sinh^2 x + sin^2 eps).
    Real part saturates at +-(pi/2 - eps); the apex sits at x = 0 with
    imaginary part ln(1/sin eps) > 0. Satisfies sinh(x - i eps) = -i e^{i xi}.
    """

    epsilon: float

    def __post_init__(self):
        if not (0.0 < self.epsilon < math.pi / 2):
            raise InvalidParameters("epsilon must lie strictly inside (0, pi/2)")

    def point(self, x):
        x = np.asarray(x, dtype=float) if np.ndim(x) else float(x)
        v = np.arctan(np.tanh(x) / math.tan(self.epsilon))
        u = 0.5 * np.log(np.sinh(x) ** 2 + math.sin(self.epsilon) ** 2)
        return v - 1j * u

    def derivative(self, x):
        # xi'(x) = -i coth(x - i eps), from differentiating the arch identity
        x = np.asarray(x, dtype=float) if np.ndim(x) else float(x)
        return -1j / np.tanh(x - 1j * self.epsilon)

    @property
    def apex(self) -> float:
        """Height of the path's top above the real axis, ln(1/sin eps)."""
        return math.log(1.0 / math.sin(self.epsilon))


def continuous_log(values):
    """log along a sample path: principal at the first sample, then
    phase-continuous (unwrapped by whole turns).

    Raises BranchDiscontinuity when adjacent samples are separated by more
    than pi/2 in phase even after unwrapping.
    """
    vals = np.asarray(values, dtype=complex)
    if np.min(np.abs(vals)) == 0.0:
        raise SingularPoint("continuous_log hit an exact zero")
    logs = np.log(vals)
    if logs.size > 1:
        dphi = np.diff(logs.imag)
        turns = np.round(dphi / (2 * math.pi))
        residual = dphi - 2 * math.pi * turns
        worst = float(np.max(np.abs(residual)))
        if worst > math.pi / 2:
            raise BranchDiscontinuity(
                f"adjacent phase jump {worst:.3f} rad exceeds pi/2; sampling too coarse"
            )
        logs[1:] = logs[1:] - 2j * math.pi * np.cumsum(turns)
    return logs


def power_along_path(base_values, exponent):
    """base^exponent with the branch-continuity policy along the samples."""
    return np.exp(exponent * continuous_log(base_values))


@dataclass(frozen=True)
class LiouvilleMap:
    """An invertible coordinate map r(xi) with three derivative closures
    and the base problem's decay rate kappa > 0."""

    descriptor: str
    r: Callable
    r1: Callable
    r2: Callable
    r3: Callable
    kappa: float

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise InvalidParameters("kappa must be real and > 0")

    def check_derivatives(self, xi) -> None:
        """Central finite-difference cross-check of r1, r2, r3 at xi: step
        _FD_STEP, relative tolerance _FD_TOL."""
        h = _FD_STEP
        pairs = ((self.r, self.r1), (self.r1, self.r2), (self.r2, self.r3))
        for f, df in pairs:
            fd = (np.asarray(f(xi + h)) - np.asarray(f(xi - h))) / (2 * h)
            an = np.asarray(df(xi))
            err = np.max(np.abs(fd - an) / (1.0 + np.abs(an)))
            if err > _FD_TOL:
                raise DerivativeInconsistency(
                    f"map '{self.descriptor}': analytic {df.__name__ if hasattr(df, '__name__') else 'derivative'}"
                    f" disagrees with finite differences by {float(err):.3e} relative"
                )


def arch_liouville_map(kappa: float) -> LiouvilleMap:
    """The arch map sinh r = -i e^{i xi}, i.e. r(xi) = arcsinh(-i e^{i xi}).

    Derivatives follow from r' = i tanh r by repeated differentiation:
    r'' = -tanh r sech^2 r, r''' = i tanh r sech^2 r (2 tanh^2 r - sech^2 r).
    The principal arcsinh branch reproduces r(xi(x)) = x - i*eps along the
    whole arch.
    """

    def r(xi):
        return np.arcsinh(-1j * np.exp(1j * np.asarray(xi, dtype=complex)))

    def r1(xi):
        return 1j * np.tanh(r(xi))

    def r2(xi):
        rv = r(xi)
        return -np.tanh(rv) / np.cosh(rv) ** 2

    def r3(xi):
        rv = r(xi)
        t = np.tanh(rv)
        s2 = 1.0 / np.cosh(rv) ** 2
        return 1j * t * s2 * (2 * t ** 2 - s2)

    return LiouvilleMap("arch: sinh r = -i exp(i xi)", r, r1, r2, r3, kappa)


def identity_liouville_map(kappa: float) -> LiouvilleMap:
    """r(xi) = xi; curvature terms vanish."""

    def one(xi):
        return np.ones(np.shape(xi), dtype=complex) if np.ndim(xi) else 1.0 + 0.0j

    def zero(xi):
        return np.zeros(np.shape(xi), dtype=complex) if np.ndim(xi) else 0.0 + 0.0j

    return LiouvilleMap("identity", lambda xi: np.asarray(xi, dtype=complex) if np.ndim(xi) else complex(xi),
                        one, zero, zero, kappa)


def linear_liouville_map(scale: float, kappa: float) -> LiouvilleMap:
    """r(xi) = scale * xi; pure rescaling, curvature terms vanish."""
    if scale == 0:
        raise InvalidParameters("scale must be nonzero")

    def r(xi):
        return scale * (np.asarray(xi, dtype=complex) if np.ndim(xi) else complex(xi))

    def const(xi):
        if np.ndim(xi):
            return np.full(np.shape(xi), complex(scale))
        return complex(scale)

    def zero(xi):
        return np.zeros(np.shape(xi), dtype=complex) if np.ndim(xi) else 0.0 + 0.0j

    return LiouvilleMap(f"linear x{scale}", r, const, zero, zero, kappa)


def liouville_potential(W, lmap: LiouvilleMap, xi):
    """V(xi) - E for the transformed problem, the full right-hand side

        [r'(xi)]^2 { W[r(xi)] + kappa^2 } + (3/4)[r''/r']^2 - (1/2)[r'''/r'],

    where -kappa^2 is the base problem's bound-state energy. The caller
    separates V from the transformed energy E using the target family's
    closed form. Raises SingularPoint when r' vanishes at xi and
    DerivativeInconsistency when the map's analytic derivatives fail
    their finite-difference cross-check.
    """
    lmap.check_derivatives(xi)
    rp = np.asarray(lmap.r1(xi)) if np.ndim(xi) else lmap.r1(xi)
    if np.min(np.abs(rp)) < _METRIC_FLOOR:
        raise SingularPoint("r'(xi) vanishes on the requested points")
    ratio2 = np.asarray(lmap.r2(xi)) / rp
    ratio3 = np.asarray(lmap.r3(xi)) / rp
    out = rp ** 2 * (W(lmap.r(xi)) + lmap.kappa ** 2) + 0.75 * ratio2 ** 2 - 0.5 * ratio3
    return out if np.ndim(xi) else complex(out)


def transport_wavefunction(chi, lmap: LiouvilleMap, xi_samples):
    """Psi(xi) = chi[r(xi)] / sqrt(r'(xi)) along an ordered sample sequence.

    The square root follows the branch-continuity policy (principal at the
    first sample, continuous thereafter).
    """
    xi = np.asarray(xi_samples, dtype=complex)
    rp = np.asarray(lmap.r1(xi), dtype=complex)
    if np.min(np.abs(rp)) < _METRIC_FLOOR:
        raise SingularPoint("r'(xi) vanishes along the sample path")
    root = np.exp(0.5 * continuous_log(rp))
    return np.asarray(chi(lmap.r(xi)), dtype=complex) / root
