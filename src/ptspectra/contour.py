"""Complex integration paths and the Liouville change-of-variables engine.

Two path families are provided: the shifted line x - i*eps and the
down-bent arch obtained from it by sinh(x - i*eps) = -i e^{i xi(x)}.
Both are PT-symmetric: xi(-x) = -xi(x)*. A path gives its points xi(x)
by `point(x)` and its closed-form jet by `jet(x)`, the tuple (xi, xi',
xi'', xi''') in the path parameter x, whose entry 0 is `point(x)`.
`Stretched(contour, a)` re-parametrises any path by x = a sinh(s).

The one Liouville coordinate map is the arch's: `arch_map(xi)` returns
(r, r', r'', r''') at xi from closed forms, so one evaluation shares the
work of all four, and nothing cross-checks them at run time.
`normal_form(jet, V)` forms the weight W and potential Q of the Liouville
normal form from such a jet, a path's or the map's, and
`liouville_potential(parent, kappa, xi)` carries a Poschl-Teller parent
to the arch with it.

`power_along_path(logs, exponents)` raises bases to complex powers from
their continuous logs, scaled by a positive constant only where the
product would overflow, and `transport_wavefunction(chi, r, root)` carries
a function of r to xi, given the map's r and `metric_root` of its r' on
the samples; both take what a caller holds, not the bases or the map.

Branch policy, used everywhere complex powers or roots appear along a
path: principal value at the first sample, then phase continuity sample
to sample (unwrapping by whole turns). An adjacent phase jump that stays
above pi/2 after unwrapping means the sampling cannot fix a branch and
raises BranchDiscontinuity. Sample sequences are ordered by increasing
parameter and must not be reordered mid-stream.

The complex elementary functions of a sampled path are formed from real
kernels, which numpy vectorises: `continuous_log` from log|v| and
atan2, `sinh_cosh(r)` from sinh and cosh of Re r / 2 and sin and cos of
Im r, and `arch_map`'s tanh r and cosh^2 r from sinh r = -i e^{i xi}.
They agree with numpy's complex log, sinh, cosh and tanh to rounding;
those run the C library's scalar routines.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchDiscontinuity, InvalidParameters, SingularPoint

_METRIC_FLOOR = 1e-10  # a smaller |r'| vanishes: SingularPoint here, MetricVanishing in `numeric`


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


def _complex(re, im):
    """The complex array re + i im with each part stored as it is
    (re + 1j * im turns an infinite im into a nan real part); 0-d parts
    give a numpy scalar, as a ufunc does."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out[()]


def continuous_log(values):
    """log along a sample path: principal at the first sample, then
    phase-continuous (unwrapped by whole turns).

    Formed from real kernels as log|v| + i atan2(Im v, Re v), with the
    phase unwrapped on the real array. numpy's complex log agrees to
    rounding but runs the C library's scalar routine, which takes an
    extended-precision path near |v| = 1. Raises SingularPoint at an exact
    zero, and BranchDiscontinuity when adjacent samples are separated by
    more than pi/2 in phase even after unwrapping.
    """
    vals = np.asarray(values, dtype=complex)
    mag = np.abs(vals)
    if np.min(mag) == 0.0:
        raise SingularPoint("continuous_log hit an exact zero")
    phase = np.arctan2(vals.imag, vals.real)
    if phase.size > 1:
        dphi = np.diff(phase)
        turns = np.round(dphi / (2 * math.pi))
        residual = dphi - 2 * math.pi * turns
        worst = float(np.max(np.abs(residual)))
        if worst > math.pi / 2:
            raise BranchDiscontinuity(
                f"adjacent phase jump {worst:.3f} rad exceeds pi/2; sampling too coarse"
            )
        if turns.any():
            phase[1:] -= 2 * math.pi * np.cumsum(turns)
    return _complex(np.log(mag), phase)


def sinh_cosh(r):
    """(sinh r, cosh r) at complex r = x + iy from real kernels:
    sinh r = sinh x cos y + i cosh x sin y and
    cosh r = cosh x cos y + i sinh x sin y. numpy's complex sinh and cosh
    agree to rounding but run the C library's scalar routines.

    sinh x = 2 sinh(x/2) cosh(x/2) and cosh x = cosh^2(x/2) + sinh^2(x/2)
    are multiplied into cos y and sin y factor by factor, so a part
    overflows only where its value passes the float range, as in the C
    library (sinh x alone overflows sooner, past |x| of about 710.5), and a
    zero sin y gives a zero part.
    """
    r = np.asarray(r, dtype=complex)
    h, y = 0.5 * r.real, r.imag
    sh, ch, s, c = np.sinh(h), np.cosh(h), np.sin(y), np.cos(y)
    chc, chs = ch * c, ch * s
    return (_complex(2 * sh * chc, ch * chs + sh * (sh * s)),
            _complex(ch * chc + sh * (sh * c), 2 * sh * chs))


def power_along_path(logs, exponents):
    """The product of base_k^exponent_k, with `logs` the bases' continuous
    logs (`continuous_log`) in order, so the powers follow the
    branch-continuity policy along the samples. The product is formed in
    the log domain, one exp of the summed exponent * log, so it stays
    finite where a factor alone would overflow or underflow. Where the
    largest real part of that sum passes 700, near where exp overflows,
    it is subtracted before the exp: the product is then scaled by a
    positive constant, its shape kept and its peak modulus 1. Below 700
    the product is unscaled."""
    total = sum(e * log for e, log in zip(exponents, logs))
    top = np.max(np.real(total), initial=-math.inf)
    return np.exp(total - top if 700.0 < top < math.inf else total)


def arch_map(xi):
    """The arch map sinh r = -i e^{i xi}, i.e. r(xi) = arcsinh(-i e^{i xi}),
    as (r, r', r'', r''') at xi.

    Derivatives follow from r' = i tanh r by repeated differentiation:
    r'' = -tanh r sech^2 r, r''' = i tanh r sech^2 r (2 tanh^2 r - sech^2 r).
    The principal arcsinh branch reproduces r(xi(x)) = x - i*eps along the
    whole arch. On it cosh r = sqrt(1 + sinh^2 r), principal root, so
    tanh r and cosh^2 r come from sinh r itself, which real kernels give
    as e^{-Im xi} (sin Re xi - i cos Re xi).
    """
    xi = np.asarray(xi, dtype=complex)
    a, v = np.exp(-xi.imag), xi.real
    sh = _complex(a * np.sin(v), -(a * np.cos(v)))
    c2 = 1 + sh * sh
    t = sh / np.sqrt(c2)
    s2 = 1.0 / c2
    return np.arcsinh(sh), 1j * t, -t / c2, 1j * t * s2 * (2 * t ** 2 - s2)


def normal_form(jet, V):
    """(W, Q) = (r'^2, r'^2 V + (3/4)(r''/r')^2 - (1/2) r'''/r'), left to
    right: u = psi / sqrt(r') solves -u'' + Q u = E W u where psi solves
    -psi'' + V psi = E psi, for a map with the jet (r, r', r'', r''') and
    V sampled at r."""
    _, rp, r2, r3 = jet
    W = rp ** 2
    return W, W * V + 0.75 * (r2 / rp) ** 2 - 0.5 * (r3 / rp)


def liouville_potential(parent, kappa, xi):
    """V(xi) - E for the transformed problem on the arch: the Q of
    `normal_form` for `arch_map(xi)` and the base potential
    parent[r(xi)] + kappa^2, -kappa^2 being the parent problem's
    bound-state energy. The caller separates V from the
    transformed energy E using the target family's closed form. Raises
    InvalidParameters unless kappa is finite and > 0 and kappa^2 is finite,
    and SingularPoint when r' vanishes at xi.
    """
    if not (math.isfinite(kappa) and kappa > 0):
        raise InvalidParameters("kappa must be real and > 0")
    if not math.isfinite(float(kappa) * float(kappa)):
        raise InvalidParameters(f"kappa^2 overflows for kappa = {kappa:g}")
    jet = arch_map(xi)
    if np.min(np.abs(jet[1])) < _METRIC_FLOOR:
        raise SingularPoint("r'(xi) vanishes on the requested points")
    return normal_form(jet, parent(jet[0]) + kappa ** 2)[1]


def metric_root(rp):
    """sqrt(r'(xi)) along an ordered sample sequence, exp(continuous_log(r')/2),
    so it follows the branch-continuity policy. Raises SingularPoint where
    r' vanishes."""
    rp = np.asarray(rp, dtype=complex)
    if np.min(np.abs(rp)) < _METRIC_FLOOR:
        raise SingularPoint("r'(xi) vanishes along the sample path")
    return np.exp(0.5 * continuous_log(rp))


def transport_wavefunction(chi, r, root):
    """Psi(xi) = chi[r(xi)] / sqrt(r'(xi)) along an ordered sample sequence:
    `r` is the map's r(xi) on the samples and `root` is `metric_root` of
    its r'(xi), held by a caller that transports several functions along
    the same samples."""
    return chi(r) / root
