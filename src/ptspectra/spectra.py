"""Closed-form spectra and analytic eigenfunctions of the three families.

Enumeration is purely algebraic: each operation walks the admissible
quantum numbers, applies the closed-form energy, and stores the derived
auxiliary parameters needed by the wave functions. Range boundaries are
strict; a level sitting within 1e-12 of its admissibility boundary is
excluded and reported through BoundaryLevelWarning (the normalizability
argument degenerates exactly there). A walk past 10^4 quantum numbers
(couplings too large to enumerate) raises InvalidParameters, and so does
a closed form that overflows.

Energies are kept as floats. If a closed form develops an imaginary part
above 1e-12 under nominally real couplings, that is a bug in this module,
not in the caller's input, and InternalConsistencyError says so.

Every level of a family is sinh and cosh powers of r times a Jacobi
polynomial, with r = xi on the shifted line and r = arch_map(xi) on the
arch, so the levels sampled on one path share every transcendental
factor. A `SampledPath` holds one ordered sample of path points and
computes each factor on first use: sinh r and cosh r with their
SingularPoint guards, their logs, the Jacobi arguments coth r and
cosh 2r, and on the arch r itself and the Liouville root
exp(continuous_log(r')/2). Its logs follow the contour module's branch
policy, principal at the first sample and continuous thereafter. The wave
functions take an array of points or a SampledPath; given an array they
sample a fresh one. A level then costs one Jacobi sum and one exp of the
exponent-weighted logs: `power_along_path` and `transport_wavefunction`
take the path's logs and root instead of taking them again.
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, wraps

import numpy as np

from .contour import arch_map, metric_root, power_along_path, transport_wavefunction
from .errors import (
    BoundaryLevelWarning,
    DegenerateSWarning,
    InternalConsistencyError,
    InvalidParameters,
    OutOfRange,
    SingularPoint,
)
from .potentials import EckartParams, HulthenParams, PoschlTellerParams
from .special import jacobi_p_hyp
from . import contour as _contour

BOUNDARY_TOL = 1e-12
_MAX_SLOTS = 10000

_SIGN_NAMES = {1: "+", -1: "-"}


@dataclass(frozen=True)
class QuantumNumbers:
    family: str
    N: int
    sigma: int = 1
    tau: int = 1

    def __post_init__(self):
        if self.N < 0:
            raise InvalidParameters("N must be a non-negative integer")
        if self.sigma not in (-1, 1) or self.tau not in (-1, 1):
            raise InvalidParameters("sigma and tau must be +1 or -1")

    def label(self) -> str:
        return f"({_SIGN_NAMES[self.sigma]},{_SIGN_NAMES[self.tau]},{self.N})"


@dataclass(frozen=True)
class Level:
    qn: QuantumNumbers
    energy: float
    aux: dict = field(default_factory=dict)


class SampledPath:
    """One ordered sample of path points and the level-independent factors
    of the closed-form wave functions on it, each computed on first use and
    kept for the object's lifetime. A factor that raises is not kept, so it
    raises again for the next level that asks. `np.asarray(path)` gives the
    points.
    """

    def __init__(self, points):
        self.points = np.asarray(points, dtype=complex)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.points, dtype=dtype, copy=copy)

    @cached_property
    def sinh(self):
        return _nonvanishing(np.sinh(self.points), "sinh r")

    @cached_property
    def cosh(self):
        return _nonvanishing(np.cosh(self.points), "cosh r")

    @cached_property
    def log_sinh(self):
        return _contour.continuous_log(self.sinh)

    @cached_property
    def log_cosh(self):
        return _contour.continuous_log(self.cosh)

    @cached_property
    def coth(self):
        """coth r, Eckart's Jacobi argument; cosh r is not guarded here,
        since coth r is finite where it vanishes."""
        return np.cosh(self.points) / self.sinh

    @cached_property
    def cosh2(self):
        """cosh 2r, the Poschl-Teller Jacobi argument."""
        return np.cosh(2 * self.points)

    @cached_property
    def arch(self):
        """(r, sqrt(r')) of arch points xi: the parent line r = arch_map(xi)
        as a SampledPath, and `contour.metric_root` of r'(xi)."""
        r, rp = arch_map(self.points)[:2]
        return SampledPath(r), metric_root(rp)


def _nonvanishing(values, name):
    if np.min(np.abs(values)) < 1e-12:
        raise SingularPoint(f"{name} vanishes on the requested points")
    return values


def _sampled(points):
    return points if isinstance(points, SampledPath) else SampledPath(points)


def _check_family(level, family):
    if level.qn.family != family:
        raise InvalidParameters(f"level must come from {family}_spectrum, "
                                f"not {level.qn.family}_spectrum")


def _check_slot(family, N):
    """InvalidParameters past slot _MAX_SLOTS of an enumeration: above about
    2^53 a coupling minus N rounds back to the coupling, and the walk would
    not end."""
    if N > _MAX_SLOTS:
        raise InvalidParameters(f"{family} enumeration passes {_MAX_SLOTS} slots; "
                                f"the couplings are too large")


def _finite(spectrum):
    """`spectrum` raising InvalidParameters where a closed form overflows:
    past about 1e154 a float's ** raises OverflowError, and a product can
    overflow to an infinite energy."""
    @wraps(spectrum)
    def enumerate_levels(p):
        try:
            levels = spectrum(p)
            if all(math.isfinite(l.energy) for l in levels):
                return levels
        except OverflowError:
            pass
        family = spectrum.__name__.removesuffix("_spectrum")
        raise InvalidParameters(f"{family} closed form overflows; the couplings are too large")

    return enumerate_levels


@_finite
def eckart_spectrum(p: EckartParams) -> list:
    """All bound levels E_N = -D^2 + beta^2/D^2, D = A-N-1 > 0 strictly.

    aux carries u = D/2 - i beta/(2D), v = D/2 + i beta/(2D) (so u+v = D).
    """
    levels = []
    N = 0
    while True:
        _check_slot("eckart", N)
        D = p.A - N - 1
        if D <= BOUNDARY_TOL:
            if 0.0 < D:
                warnings.warn(
                    f"Eckart N={N} sits on the u+v=0 boundary (D={D:.2e}); excluded",
                    BoundaryLevelWarning,
                )
            break
        E = -(D * D) + p.beta ** 2 / (D * D)
        u = D / 2 - 1j * p.beta / (2 * D)
        v = D / 2 + 1j * p.beta / (2 * D)
        check = -2 * (u * u + v * v)
        if abs(check - E) > 1e-12 * max(1.0, abs(E)):
            raise InternalConsistencyError("aux (u,v) disagree with the closed-form energy")
        aux = {"D": D, "u": u, "v": v}
        levels.append(Level(QuantumNumbers("eckart", N), E, aux))
        N += 1
    return levels


def eckart_wavefunction(p: EckartParams, level: Level, points):
    """psi(r) = (y-1)^u (y+1)^v P_N^{(2u, 2v)}(y) with y = coth r.

    The Jacobi pair (2u, 2v) is the one forced by matching the terminating
    Gauss series (c = 1+2u, a+b = 2u+2v+1); the discrete Schrodinger
    residual rejects the printed pair (u/2, v/2). Complex powers are
    branch-continuous along the points, an array or a `SampledPath`. A
    level of another family raises InvalidParameters.
    """
    _check_family(level, "eckart")
    u, v = level.aux["u"], level.aux["v"]
    path = _sampled(points)
    poly = jacobi_p_hyp(level.qn.N, 2 * u, 2 * v, path.coth)
    # y -+ 1 = e^{-+r}/sinh r, so u log(y-1) + v log(y+1) = (v-u) r - (u+v) log sinh r:
    # one exp in the log domain, finite where y - 1 itself underflows. On a
    # shifted line, -r - log sinh r is the principal log of y - 1 at every
    # first sample, so the branch is that of the two continued powers.
    return np.exp((v - u) * path.points - (u + v) * path.log_sinh) * poly


@_finite
def rpt_spectrum(p: PoschlTellerParams) -> list:
    """Levels E = -(2N+1+sigma*alpha+tau*beta)^2 over all four (sigma,tau)
    families, N admissible while 2N+1 < -sigma*alpha-tau*beta strictly."""
    levels = []
    for sigma, tau in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
        limit = -sigma * p.alpha - tau * p.beta
        N = 0
        while True:
            _check_slot("rpt", N)
            margin = limit - (2 * N + 1)
            if margin <= BOUNDARY_TOL:
                if margin > 0.0:
                    warnings.warn(
                        f"RPT ({_SIGN_NAMES[sigma]},{_SIGN_NAMES[tau]}) N={N} sits on the "
                        f"2N+1 = -sigma*alpha-tau*beta boundary; excluded",
                        BoundaryLevelWarning,
                    )
                break
            kappa = margin
            E = -((2 * N + 1 + sigma * p.alpha + tau * p.beta) ** 2)
            levels.append(Level(QuantumNumbers("rpt", N, sigma, tau), E, {"kappa": kappa}))
            N += 1
    return levels


def _parent_eigenfunction(N, tb, sa, r):
    """sinh^{tb+1/2}(r) cosh^{sa+1/2}(r) P_N^{(tb, sa)}(cosh 2r), branch-continuous:
    the Poschl-Teller eigenfunction with tb = tau*beta, sa = sigma*alpha, on
    the points r, an array or a `SampledPath`."""
    path = _sampled(r)
    sh, ch = path.sinh, path.cosh  # their SingularPoint guards come before the Jacobi sum
    poly = jacobi_p_hyp(N, tb, sa, path.cosh2)
    logs = path.log_sinh, path.log_cosh
    return power_along_path(sh, tb + 0.5, ch, sa + 0.5, logs=logs) * poly


def rpt_wavefunction(p: PoschlTellerParams, level: Level, points):
    """psi = sinh^{tau*beta+1/2}(r) cosh^{sigma*alpha+1/2}(r)
    P_N^{(tau*beta, sigma*alpha)}(cosh 2r), branch-continuous along the
    points, an array or a `SampledPath`. A level of another family raises
    InvalidParameters."""
    _check_family(level, "rpt")
    qn = level.qn
    return _parent_eigenfunction(qn.N, qn.tau * p.beta, qn.sigma * p.alpha, points)


def rpt_real_energy_condition(alpha, beta, sigma: int, tau: int, N: int):
    """E = -(2N+1+sigma*alpha+tau*beta)^2 with complex couplings.

    Returns (True, E) when Im E vanishes within 1e-12, which happens
    exactly when Im(sigma*alpha + tau*beta) = 0.
    """
    E = -((2 * N + 1 + sigma * complex(alpha) + tau * complex(beta)) ** 2)
    return (abs(E.imag) <= 1e-12, E)


@_finite
def hulthen_spectrum(p: HulthenParams) -> list:
    """Levels of the transformed family, enumerated by (sigma, n).

    s = sigma*alpha + 2n + 1; tau*beta = (C - s^2)/(2s);
    kappa = -(s^2 + C)/(2s); a level is accepted iff kappa > 0 and then
    E = C + (s - C/s)^2/4 = kappa^2 exactly. s = 0 slots and tau*beta = 0
    slots are skipped with DegenerateSWarning (beta > 0 convention).
    """
    levels = []
    for sigma in (-1, 1):
        n = 0
        while True:
            _check_slot("hulthen", n)
            s = sigma * p.alpha + 2 * n + 1
            if abs(s) <= BOUNDARY_TOL:
                warnings.warn(f"hulthen (sigma={sigma}, n={n}): s = 0, slot skipped", DegenerateSWarning)
                n += 1
                continue
            if s > 0 and s * s + p.C > -BOUNDARY_TOL:
                # s only grows with n, so kappa stays negative from here on
                break
            kappa = -(s * s + p.C) / (2 * s)
            if kappa > BOUNDARY_TOL:
                tau_beta = (p.C - s * s) / (2 * s)
                if abs(tau_beta) <= BOUNDARY_TOL:
                    warnings.warn(
                        f"hulthen (sigma={sigma}, n={n}): tau*beta = 0, level excluded",
                        DegenerateSWarning,
                    )
                else:
                    drift = 0.25 * (s - p.C / s) ** 2
                    E = p.C + drift
                    # E cancels C against the drift term, so it is only as
                    # accurate as their size, not as that of E = kappa^2
                    if abs(E - kappa * kappa) > 1e-12 * (abs(p.C) + drift):
                        raise InternalConsistencyError("E and kappa^2 closed forms disagree")
                    tau = 1 if tau_beta > 0 else -1
                    aux = {"s": s, "tau_beta": tau_beta, "kappa": kappa}
                    levels.append(Level(QuantumNumbers("hulthen", n, sigma, tau), E, aux))
            n += 1
    return levels


def hulthen_wavefunction(p: HulthenParams, level: Level, arch, x_samples):
    """Psi(xi(x)) = chi[r(xi)] / sqrt(r'(xi)) along the arch.

    chi is the parent eigenfunction rebuilt from the level's derived
    parameters (beta = |tau*beta|, tau = sign); one `arch_map` call
    supplies r(xi) = x - i*eps and the metric factor r'(xi), and the root
    follows the branch policy. `x_samples` are path parameters of `arch`,
    or a `SampledPath` of its points xi(x), which `arch` then need not
    supply.
    """
    _check_family(level, "hulthen")
    tb = level.aux["tau_beta"]
    sa = level.qn.sigma * p.alpha
    path = x_samples if isinstance(x_samples, SampledPath) else SampledPath(
        arch.point(np.asarray(x_samples, dtype=float)))
    n = level.qn.N
    return transport_wavefunction(lambda r: _parent_eigenfunction(n, tb, sa, r), arch_map,
                                  path, mapped=path.arch)


def eckart_spacing(p: EckartParams, N: int) -> float:
    """Closed-form gap E_N - E_{N-1} = (2D+1)(1 + beta^2/(D^2 (D+1)^2)),
    D = A-N-1; both N and N-1 must be admissible. Always exceeds 1."""
    if N < 1:
        raise OutOfRange("spacing needs N >= 1")
    D = p.A - N - 1
    if D <= BOUNDARY_TOL:
        raise OutOfRange(f"level N={N} is not admissible for A={p.A}")
    return (2 * D + 1) * (1 + p.beta ** 2 / (D * D * (D + 1) * (D + 1)))
