"""Complex integration paths and the Liouville change-of-variables engine.

Two path families are provided: the shifted line x - i*eps and the
down-bent arch obtained from it by sinh(x - i*eps) = -i e^{i xi(x)}.
Both are PT-symmetric: xi(-x) = -xi(x)*. A path gives its points xi(x)
by `point(x)` and its closed-form jet by `jet(x)`, the tuple (xi, xi',
xi'', xi''') in the path parameter x, whose entry 0 is `point(x)`.
`Stretched(contour, a)` re-parametrises any path by x = a sinh(s).

A Liouville coordinate map is one function `lmap(xi)` returning
(r, r', r'', r''') at xi, so one evaluation shares the work of all four
(`arch_map`, `identity_map`); `check_derivatives` cross-checks any such
map against finite differences.

Branch policy, used everywhere complex powers or roots appear along a
path: principal value at the first sample, then phase continuity sample
to sample (unwrapping by whole turns). An adjacent phase jump that stays
above pi/2 after unwrapping means the sampling cannot fix a branch and
raises BranchDiscontinuity. Sample sequences are ordered by increasing
parameter and must not be reordered mid-stream.
"""

import math
from dataclasses import dataclass

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
        """xi(x) = x - i*eps."""
        x = np.asarray(x, dtype=float)
        return x - 1j * self.epsilon

    def jet(self, x):
        """(xi, xi', xi'', xi''') at x: (x - i*eps, 1, 0, 0)."""
        one = np.ones(np.shape(x), dtype=complex)
        zero = np.zeros_like(one)
        return self.point(x), one, zero, zero


@dataclass(frozen=True)
class ArchContour:
    """Down-bent arch xi(x) = v(x) - i u(x).

    v = arctan(tanh x / tan eps), u = (1/2) ln(sinh^2 x + sin^2 eps).
    Real part saturates at +-(pi/2 - eps); the apex sits at x = 0 with
    imaginary part ln(1/sin eps) > 0. Satisfies sinh(x - i eps) = -i e^{i xi}.
    u overflows beyond |x| of about 355, where sinh^2 x does.
    """

    epsilon: float

    def __post_init__(self):
        if not (0.0 < self.epsilon < math.pi / 2):
            raise InvalidParameters("epsilon must lie strictly inside (0, pi/2)")

    def point(self, x):
        """xi(x) = v(x) - i u(x)."""
        x = np.asarray(x, dtype=float)
        v = np.arctan(np.tanh(x) / math.tan(self.epsilon))
        u = 0.5 * np.log(np.sinh(x) ** 2 + math.sin(self.epsilon) ** 2)
        return v - 1j * u

    def jet(self, x):
        """(xi, xi', xi'', xi''') at x. Differentiating the arch identity
        gives, with z = x - i eps, xi' = -i coth z, xi'' = i csch^2 z and
        xi''' = -2i coth z csch^2 z."""
        x = np.asarray(x, dtype=float)
        z = x - 1j * self.epsilon
        coth = 1.0 / np.tanh(z)
        csch2 = 1.0 / np.sinh(z) ** 2
        return self.point(x), -1j * coth, 1j * csch2, -2j * coth * csch2

    @property
    def apex(self) -> float:
        """Height of the path's top above the real axis, ln(1/sin eps)."""
        return math.log(1.0 / math.sin(self.epsilon))


@dataclass(frozen=True)
class Stretched:
    """`contour` re-parametrised by x = a sinh(s), the mapped grid of
    Fattal, Baer and Kosloff (1996): a step ds in s is a step a ds at the
    centre and grows as a cosh(s) ds outwards, so a grid uniform in s
    reaches far along the path on few points.

    The jet in s is the contour's jet in x by the chain rule, with
    x' = a cosh s, x'' = x and x''' = x': xi' = c' x', xi'' = c'' x'^2 + c' x''
    and xi''' = c''' x'^3 + 3 c'' x' x'' + c' x'''. Stretching keeps the
    path's PT symmetry, since x(-s) = -x(s).
    """

    contour: object
    a: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0):
            raise InvalidParameters("stretch a must be finite and > 0")

    def point(self, s):
        """The contour's point at x = a sinh(s)."""
        return self.contour.point(self.a * np.sinh(s))

    def jet(self, s):
        s = np.asarray(s, dtype=float)
        x, x1 = self.a * np.sinh(s), self.a * np.cosh(s)
        c, c1, c2, c3 = self.contour.jet(x)
        return c, c1 * x1, c2 * x1 ** 2 + c1 * x, c3 * x1 ** 3 + 3 * c2 * x1 * x + c1 * x1


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


def power_along_path(base_values, exponent, *more, logs=None):
    """base^exponent, times base_k^exponent_k for each further pair in
    `more` = (base_2, exponent_2, ...), with the branch-continuity policy
    along the samples. The product is formed in the log domain, one exp of
    the summed exponent * continuous_log(base), so it stays finite where a
    factor alone would overflow or underflow. `logs`, when given, holds the
    bases' continuous logs in order, taken once by a caller that raises the
    same bases to many exponents."""
    pairs = (base_values, exponent) + more
    if logs is None:
        logs = map(continuous_log, pairs[::2])
    return np.exp(sum(e * log for e, log in zip(pairs[1::2], logs)))


def arch_map(xi):
    """The arch map sinh r = -i e^{i xi}, i.e. r(xi) = arcsinh(-i e^{i xi}),
    as (r, r', r'', r''') at xi.

    Derivatives follow from r' = i tanh r by repeated differentiation:
    r'' = -tanh r sech^2 r, r''' = i tanh r sech^2 r (2 tanh^2 r - sech^2 r).
    The principal arcsinh branch reproduces r(xi(x)) = x - i*eps along the
    whole arch.
    """
    r = np.arcsinh(-1j * np.exp(1j * np.asarray(xi, dtype=complex)))
    t = np.tanh(r)
    c2 = np.cosh(r) ** 2
    s2 = 1.0 / c2
    return r, 1j * t, -t / c2, 1j * t * s2 * (2 * t ** 2 - s2)


def identity_map(xi):
    """r(xi) = xi as (r, r', r'', r''') = (xi, 1, 0, 0); curvature terms vanish."""
    r = np.asarray(xi, dtype=complex)
    return r, np.ones_like(r), np.zeros_like(r), np.zeros_like(r)


def check_derivatives(lmap, xi):
    """`lmap(xi)`, after a central finite-difference cross-check of its
    entries 1-3 against entries 0-2: step _FD_STEP, relative tolerance
    _FD_TOL. Raises DerivativeInconsistency naming the derivative that
    disagrees."""
    h = _FD_STEP
    plus, minus, at = lmap(xi + h), lmap(xi - h), lmap(xi)
    for k, name in enumerate(("r'", "r''", "r'''")):
        fd = (np.asarray(plus[k]) - np.asarray(minus[k])) / (2 * h)
        an = np.asarray(at[k + 1])
        err = np.max(np.abs(fd - an) / (1.0 + np.abs(an)))
        if err > _FD_TOL:
            raise DerivativeInconsistency(
                f"analytic {name} disagrees with finite differences by {float(err):.3e} relative"
            )
    return at


def add_curvature(base, rp, r2, r3):
    """base + (3/4)[r''/r']^2 - (1/2)[r'''/r'], evaluated left to right: the
    curvature term of the Liouville normal form added to `base`."""
    return base + 0.75 * (r2 / rp) ** 2 - 0.5 * (r3 / rp)


def liouville_potential(W, kappa, lmap, xi):
    """V(xi) - E for the transformed problem, the full right-hand side

        [r'(xi)]^2 { W[r(xi)] + kappa^2 } + (3/4)[r''/r']^2 - (1/2)[r'''/r'],

    where `lmap(xi)` gives (r, r', r'', r''') and -kappa^2 is the base
    problem's bound-state energy. The caller separates V from the
    transformed energy E using the target family's closed form. Raises
    InvalidParameters unless kappa is finite and > 0, SingularPoint when r'
    vanishes at xi and DerivativeInconsistency when the map's analytic
    derivatives fail their finite-difference cross-check.
    """
    if not (math.isfinite(kappa) and kappa > 0):
        raise InvalidParameters("kappa must be real and > 0")
    r, rp, r2, r3 = check_derivatives(lmap, xi)
    if np.min(np.abs(rp)) < _METRIC_FLOOR:
        raise SingularPoint("r'(xi) vanishes on the requested points")
    return add_curvature(rp ** 2 * (W(r) + kappa ** 2), rp, r2, r3)


def metric_root(rp):
    """sqrt(r'(xi)) along an ordered sample sequence, exp(continuous_log(r')/2),
    so it follows the branch-continuity policy. Raises SingularPoint where
    r' vanishes."""
    rp = np.asarray(rp, dtype=complex)
    if np.min(np.abs(rp)) < _METRIC_FLOOR:
        raise SingularPoint("r'(xi) vanishes along the sample path")
    return np.exp(0.5 * continuous_log(rp))


def transport_wavefunction(chi, lmap, xi_samples, mapped=None):
    """Psi(xi) = chi[r(xi)] / sqrt(r'(xi)) along an ordered sample sequence,
    r and r' taken from one `lmap(xi)` call and the root from `metric_root`.

    `mapped`, when given, is that (r, root) on `xi_samples`, held by a
    caller that transports several functions along the same samples; lmap
    is then not called.
    """
    if mapped is None:
        r, rp = lmap(np.asarray(xi_samples, dtype=complex))[:2]
        mapped = r, metric_root(rp)
    r, root = mapped
    return np.asarray(chi(r), dtype=complex) / root
