"""Finite-difference verification engine for the closed forms.

The one discrete operator is a complex tridiagonal pencil A u = lambda M u
on the grid's interior nodes, with Dirichlet truncation at the ends;
`DiscretizedHamiltonian` stores A and M alike, as band tuples. The
contour is part of the `Grid` (None is the real line).

`build_hamiltonian(evaluator, grid)` is the fourth-order Numerov pencil
of the Liouville normal form along `grid.contour`. With the contour's jet
(xi, xi', xi'', xi''') the unknown is u = psi / sqrt(xi'), and the
equation in the path parameter reads -u'' + Q u = E W u with W = xi'^2
and Q = xi'^2 V + (3/4)(xi''/xi')^2 - (1/2) xi'''/xi'. Numerov's stencil
turns it into A = L + B diag(Q) and M = B diag(W), where
L = tridiag(-1, 2, -1)/h^2 and B = tridiag(1, 10, 1)/12. On the shifted
line and the real line xi' = 1, so Q = V and W = 1.
`solve_targeted(H, target, start=None)` inverse-iterates one eigenpair of
the pencil near `target` from `start`, factoring A - target M once and
stopping when the eigenpair has settled relative to
||A||_inf + |target| ||M||_inf, or when the measured rate of its residual
cannot get it there within the sweep budget. It loads scipy's LAPACK at
the first solve, so importing this module does not.

Verification solves the Numerov pencil on the once refined grid (same
endpoints, halved step) and then on the stated grid, for every family; the
stated-grid solve starts from the even nodes of the refined eigenvector.
The reported eigenvalue is the Richardson combination
(16*lambda_fine - lambda_coarse)/15, which removes the O(h^4) truncation
term of the stencil, and the refined pass also yields each level's
convergence order of the Numerov residuals.
The refined grid's even nodes are the stated grid's nodes, bit for bit.
So each report samples the path, the potential and the Liouville scale
exp(-log(xi')/2) once, on the refined grid, and the stated-grid pencil
reads their even nodes. The path's factors are sampled once per report,
in one `spectra.SampledPath` of the refined grid's points that every
level's analytic wave function reads; each wave function is scaled to the
Liouville unknown, and the stated-grid residual reads its even nodes too.

Without a given grid, `verify_family` sizes a stretched grid from the
closed forms (`_rule_grid`). On every grid, given or sized, one rule types
a failing level the grid does not resolve ResolutionLimit.

`FAMILIES` holds one `Family` record per parameter type; `verify_family`
and the CLI dispatch through it.
"""

import functools
import math
import operator
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .contour import (
    ArchContour,
    ShiftedLine,
    Stretched,
    add_curvature,
    identity_map,
)
from .errors import (
    InvalidParameters,
    MetricVanishing,
    NoConvergence,
    ResolutionLimit,
    ShiftSingular,
    SpectraError,
)
from .potentials import (
    EckartParams,
    HulthenParams,
    PoschlTellerParams,
    eval_eckart,
    eval_hulthen,
    eval_rpt,
    pt_defect,
)
from . import contour as _contour
from . import spectra as _sp

_METRIC_FLOOR = 1e-10
_START_SEED = 42
_START_VECTORS = 8
_SWEEP_TOL = 1e-14
_MAX_SWEEPS = 200
_RATE_FROM = 16  # the first sweep at which a measured rate can stop a solve
_RATE_SPAN = 8  # sweeps over which the residual's geometric rate is measured
_SHIFT_NUDGE = 1e-8 * (1 + 1j)
_RESIDUAL_BUFFER = 0.05
_MAX_POINTS = 10 ** 7
# The verify-grid rule; `_rule_grid` says what each constant bounds.
_VERIFY_POINTS = 1001
_STEP_THETA = 0.4
_RESIDUAL_SAFETY = 100.0
_RANGE_FACTOR = 1.5
_PROBE_POINTS = 200
_STRETCHES = 2.0 ** -np.arange(14)
_LEVEL_BLOCK = 64
_ORDERS = (3.5, 4.5)  # measured residual orders near Numerov's 4


@dataclass(frozen=True)
class Grid:
    """`n_points` equally spaced path parameters x on [x_min, x_max], ends
    included, and the contour that maps them to path points. ValueError for
    non-finite bounds, a non-integer `n_points`, fewer than 3 or more than
    _MAX_POINTS points, or x_max <= x_min. `contour=None` is the real line
    to `build_hamiltonian` and the family's canonical contour to
    `verify_family`."""

    x_min: float
    x_max: float
    n_points: int
    contour: object = None

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError("grid bounds must be finite")
        try:
            operator.index(self.n_points)
        except TypeError:
            raise ValueError(f"n_points must be an integer, got {self.n_points!r}") from None
        if self.n_points < 3:
            raise ValueError("grid needs at least 3 points")
        if self.n_points > _MAX_POINTS:
            raise ValueError(f"grid of {self.n_points} points exceeds the cap of {_MAX_POINTS}")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    def refined(self) -> "Grid":
        """Same endpoints, halved step."""
        return Grid(self.x_min, self.x_max, 2 * self.n_points - 1, self.contour)


def _band_product(bands, v, ends=(0.0, 0.0)):
    """The tridiagonal rows `bands` = (diag, lower, upper, bc_left, bc_right)
    applied to the interior vector v, the boundary nodes holding `ends`."""
    diag, lower, upper, bc_left, bc_right = bands
    w = diag * v
    w[1:] += lower * v[:-1]
    w[:-1] += upper * v[1:]
    w[0] += bc_left * ends[0]
    w[-1] += bc_right * ends[1]
    return w


def _norm_inf(bands) -> float:
    diag, lower, upper = bands[:3]
    rows = np.abs(diag)
    rows[1:] += np.abs(lower)
    rows[:-1] += np.abs(upper)
    return float(np.max(rows))


@dataclass
class DiscretizedHamiltonian:
    """Complex tridiagonal pencil A u = lambda M u on the grid's interior nodes.

    `A` and `M` each hold (diag, lower, upper, bc_left, bc_right): the three
    bands and the couplings of the first/last interior row to the
    (Dirichlet-zero) boundary nodes, which the residual of a whole-grid
    sample needs. `samples` holds the node samples (xi, Q, xi') a Numerov
    pencil was built from, on every node of the grid. `norms` holds
    (||A||_inf, ||M||_inf), taken once when the pencil is built.
    """

    A: tuple
    M: tuple
    grid: Grid
    samples: tuple = ()

    def __post_init__(self):
        self.norms = (_norm_inf(self.A), _norm_inf(self.M))


@dataclass
class EigenResult:
    eigenvalue: complex
    eigenvector: np.ndarray
    residual: float
    iterations: int


def build_hamiltonian(evaluator, grid: Grid) -> DiscretizedHamiltonian:
    """The Numerov pencil of -d^2/dxi^2 + V(xi) along the grid's contour.

    In Liouville normal form, u = psi / sqrt(xi'), the equation in the path
    parameter is -u'' + Q u = E W u with W = xi'^2 and
    Q = xi'^2 V + (3/4)(xi''/xi')^2 - (1/2) xi'''/xi', from the contour's
    closed-form `jet`. Numerov's O(h^4) stencil gives A = L + B diag(Q) and
    M = B diag(W), with L = tridiag(-1, 2, -1)/h^2 and
    B = tridiag(1, 10, 1)/12; the boundary couplings take Q and W at the
    end nodes. `grid.contour=None` means the real line; there and on a
    ShiftedLine xi' = 1, so Q = V and W = 1. MetricVanishing when |xi'|
    falls below _METRIC_FLOOR at a node.
    """
    x = grid.points()
    jet = identity_map(x) if grid.contour is None else grid.contour.jet(x)
    xi, xp, xp2, xp3 = (np.asarray(c, dtype=complex) for c in jet)
    small = float(np.min(np.abs(xp)))
    if small < _METRIC_FLOOR:
        raise MetricVanishing(f"|xi'| = {small:.3e} below {_METRIC_FLOOR:.1e} on the grid")
    Q = add_curvature(xp ** 2 * np.asarray(evaluator(xi), dtype=complex), xp, xp2, xp3)
    return _numerov_pencil(xi, Q, xp, grid)


def _numerov_pencil(xi, Q, xp, grid: Grid) -> DiscretizedHamiltonian:
    """A = L + B diag(Q) and M = B diag(xp^2) from the node samples Q and
    xi' on every node of `grid`; the path points xi are kept with them."""
    off, b0, b1 = -1.0 / grid.h ** 2, 10.0 / 12.0, 1.0 / 12.0

    def weighted(F):  # the rows of B diag(F)
        return b0 * F[1:-1], b1 * F[1:-2], b1 * F[2:-1], complex(b1 * F[0]), complex(b1 * F[-1])

    laplacian = (2.0 / grid.h ** 2, off, off, off, off)
    return DiscretizedHamiltonian(
        tuple(l + b for l, b in zip(laplacian, weighted(Q))), weighted(xp ** 2), grid,
        (xi, Q, xp))


def _stated_pencil(Hf: DiscretizedHamiltonian, grid: Grid) -> DiscretizedHamiltonian:
    """The pencil on `grid` read from the even nodes of `Hf`, the pencil on
    `grid.refined()`: those nodes are `grid`'s nodes bit for bit, so the
    bands equal those of `build_hamiltonian` on `grid`."""
    return _numerov_pencil(*(sample[::2] for sample in Hf.samples), grid)


@functools.lru_cache(maxsize=_START_VECTORS)
def _start_vector(n: int) -> np.ndarray:
    """The unit start vector of inverse iteration on n nodes, seeded with
    _START_SEED; read-only, since every solve on n nodes shares it."""
    rng = np.random.default_rng(_START_SEED)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    v.flags.writeable = False
    return v


def solve_targeted(H: DiscretizedHamiltonian, target, start=None) -> EigenResult:
    """Shifted inverse iteration for the eigenpair of A u = lambda M u
    nearest `target`.

    Starts from `start`, a vector on the interior nodes, or by default from
    a seeded random unit vector, drawn once per size for the last
    _START_VECTORS sizes; A - shift M is factored once (LAPACK gttrf) and
    each sweep is one gttrs solve of (A - shift M) w = M v. The eigenvalue
    is the Rayleigh quotient v^H A v / v^H M v and the residual
    max|A v - lambda M v| / max|v|. A sweep stops when the residual and the
    change of the Rayleigh quotient since the previous sweep are both
    within tol = _SWEEP_TOL * (||A||_inf + |target| ||M||_inf): a small
    residual alone can be a pseudo-eigenpair of this non-normal pencil whose
    Rayleigh quotient still sits on the shift. From sweep _RATE_FROM on, the
    residual's geometric rate q over the last _RATE_SPAN sweeps stops a
    solve that cannot settle: NoConvergence when q >= 1, or when the sweeps
    q predicts to bring the residual to tol would pass _MAX_SWEEPS. No
    settled pair within _MAX_SWEEPS sweeps raises NoConvergence too, and
    its message names the last measured rate. Where rounding keeps the
    Rayleigh quotient moving by more than tol, a found pair never settles:
    the rate stop ends its solve, and `verify_family` types it "no settled
    eigenpair". A singular factor or an overflowing solve restarts once at
    the shift nudged by _SHIFT_NUDGE before ShiftSingular is raised. Fewer
    than 3 interior nodes raise InvalidParameters.
    """
    # imported here, not with the module: scipy.linalg outweighs the rest of
    # start-up, and the closed-form commands never solve
    from scipy.linalg.lapack import zgttrf, zgttrs

    a_diag, a_lower, a_upper = H.A[:3]
    m_diag, m_lower, m_upper = H.M[:3]
    n = len(a_diag)
    if n < 3:
        raise InvalidParameters(f"{n} interior nodes; inverse iteration needs at least 3")
    tol = _SWEEP_TOL * (H.norms[0] + abs(target) * H.norms[1])
    Mv = _band_product(H.M, _start_vector(n) if start is None else start)
    u = np.zeros(n + 2, dtype=complex)  # the iterate with its Dirichlet ends
    v = u[1:-1]
    lam_prev, best_residual, it, q = None, math.inf, 0, math.nan
    for shift in (complex(target), complex(target) + _SHIFT_NUDGE):
        *lu, info = zgttrf(a_lower - shift * m_lower, a_diag - shift * m_diag,
                           a_upper - shift * m_upper)
        failure = "shifted system singular" if info > 0 else None
        history = []  # the residual of each sweep at this shift
        while failure is None and it < _MAX_SWEEPS:
            w, _ = zgttrs(*lu, Mv)
            nw = np.linalg.norm(w)
            if not (np.isfinite(nw) and nw != 0.0):
                failure = "shifted solve overflowed"
                break
            it += 1
            np.divide(w, nw, out=v)
            Av, Mv = _band_product(H.A, v), _band_product(H.M, v)
            lam = complex(np.vdot(v, Av) / np.vdot(v, Mv))
            res = float(np.max(np.abs(Av - lam * Mv)) / np.max(np.abs(v)))
            best_residual = min(best_residual, res)
            if res <= tol and lam_prev is not None and abs(lam - lam_prev) <= tol:
                return EigenResult(lam, u, res, it)
            lam_prev = lam
            history.append(res)
            if len(history) >= _RATE_FROM:
                past = history[-1 - _RATE_SPAN]
                q = (res / past) ** (1 / _RATE_SPAN) if past > 0 else math.inf
                if q >= 1 or res > tol and it + math.log(tol / res) / math.log(q) > _MAX_SWEEPS:
                    break
        if failure is None:
            raise NoConvergence(
                f"inverse iteration at shift {target} did not settle in {it} sweeps: "
                f"its residual changed by a factor {q:.3g} per sweep over the last "
                f"{_RATE_SPAN}; best residual {best_residual:.3e}",
                best_residual=best_residual, iterations=it,
            )
    raise ShiftSingular(f"{failure} at {shift}")


def residual(psi, E, H: DiscretizedHamiltonian) -> float:
    """max |A psi - E M psi| over interior nodes, ends buffered, / max|psi|.

    psi is sampled on the full grid (ValueError otherwise); for the Numerov
    pencil it is the Liouville unknown u = psi / sqrt(xi'). A
    _RESIDUAL_BUFFER share of interior nodes at each end is excluded to keep
    boundary-truncation artifacts out of the norm. InvalidParameters when
    that leaves no node.
    """
    psi = np.asarray(psi, dtype=complex)
    if len(psi) != H.grid.n_points:
        raise ValueError("psi must be sampled on the full grid")
    v, ends = psi[1:-1], (psi[0], psi[-1])
    r = _band_product(H.A, v, ends) - complex(E) * _band_product(H.M, v, ends)
    nb = int(math.ceil(_RESIDUAL_BUFFER * len(r)))
    core = r[nb:len(r) - nb] if nb else r
    if not core.size:
        raise InvalidParameters(f"{len(r)} interior nodes leave no residual core")
    return float(np.max(np.abs(core)) / np.max(np.abs(psi)))


@dataclass
class LevelRecord:
    """One level's verdict in a `VerificationReport`.

    `label`, `N`, `sigma`, `tau` name the level and `E_analytic` is its
    closed-form energy; `eigenvalue` is the Richardson eigenvalue, `abs_err`
    its distance from `E_analytic` and `im_abs` its |Im|; `residual` and
    `residual_fine` are the Numerov residuals of the analytic wave function
    on the stated and the refined grid, `order` their log2 ratio, and
    `iterations` the sweeps run. A level whose solve or sample raised keeps
    the failure defaults nan+nanj, inf, inf, inf, inf, nan, and the sweeps
    run before the error. `converged` means "passed the verdict" (default
    False); the name stays for the verify CSV header and report readers.
    `note` is the human text of a failure ("" on a pass), and `diagnostic`
    the `SpectraError` subclass that typed it: the error's type, or
    ResolutionLimit for one of `verify_family`'s reasons. It is None on a
    pass and on a plain failure, which misses a tolerance for no reason
    the grid explains.
    """

    label: str
    N: int
    sigma: int
    tau: int
    E_analytic: float
    eigenvalue: complex = complex("nan+nanj")
    abs_err: float = math.inf
    im_abs: float = math.inf
    residual: float = math.inf
    residual_fine: float = math.inf
    order: float = math.nan
    iterations: int = 0
    converged: bool = False
    note: str = ""
    diagnostic: type = None


@dataclass
class VerificationReport:
    family: str
    entries: list
    passed: bool
    pt_defect: float
    grid: Grid
    tol_energy: float
    tol_residual: float


@dataclass(frozen=True)
class Family:
    """What the verifier and the CLI know about one potential family.

    `spectrum(params)`, `potential(params, xi)` and
    `wavefunction(params, level, path)` look the family functions up when
    called, not at import, so a wrapper installed on a module attribute
    sees every call. `path` is a `spectra.SampledPath` of the points.
    `contour(params)` builds the path of the record's `epsilon`: the shift
    of a ShiftedLine, the angle of Hulthen's ArchContour.
    `canonical` is the README setup and the CLI's parameter defaults; its
    type is the family's parameter record.
    `grid` is the uniform window (x_min, x_max, n_points) that `sample`
    tabulates and that `verify`'s window flags fall back on, and
    `aux_columns` the level aux entries the spectrum table prints after
    kappa (a `_re`/`_im` suffix takes that part of a complex entry).
    `tol_energy` and `tol_residual` are the verdict's default bounds.
    `decay(level)` is the closed-form rate at which a level's wave function
    decays along the path, and `reach(level)` the path range |x| on which
    its far field stays finite in floating point: sinh and cosh overflow
    past |x| of about 710 and the arch's height past 355, and a degree-N
    Jacobi factor of cosh 2r grows as e^{2N|x|}. The CLI selects a level by
    the quantum numbers it is given, the same way for every family.
    """

    name: str
    canonical: object
    spectrum: Callable
    potential: Callable
    wavefunction: Callable
    contour: Callable
    grid: tuple
    tol_energy: float
    tol_residual: float
    aux_columns: tuple
    decay: Callable
    reach: Callable


# tol_residual bounds the stated-grid Numerov residual of the analytic wave
# function, and `_rule_grid` sizes the step to it. The shifted-line 0.15 sits
# between the canonical rule-grid residuals (at most 0.022) and those of a
# wrong wave function (the printed Eckart Jacobi pair, tau-swapped rpt labels:
# 9 and more); the h -> h/2 order does the fine work.
FAMILIES = {f.name: f for f in (
    Family("eckart", EckartParams(3.0, 1.0, 0.5),
           spectrum=lambda p: _sp.eckart_spectrum(p),
           potential=lambda p, xi: eval_eckart(p, xi),
           wavefunction=lambda p, level, path: _sp.eckart_wavefunction(p, level, path),
           contour=lambda p: ShiftedLine(p.epsilon),
           grid=(-18.0, 18.0, 1001), tol_energy=1e-5, tol_residual=1.5e-1,
           aux_columns=("u_re", "u_im", "v_re", "v_im"),
           decay=lambda level: level.aux["D"],
           reach=lambda level: 700.0),
    Family("rpt", PoschlTellerParams(3.5, 1.5, 0.3),
           spectrum=lambda p: _sp.rpt_spectrum(p),
           potential=lambda p, xi: eval_rpt(p, xi),
           wavefunction=lambda p, level, path: _sp.rpt_wavefunction(p, level, path),
           contour=lambda p: ShiftedLine(p.epsilon),
           grid=(-12.0, 12.0, 1001), tol_energy=1e-6, tol_residual=1.5e-1,
           aux_columns=(),
           decay=lambda level: level.aux["kappa"],
           reach=lambda level: 700.0 / (1 + 2 * level.qn.N)),
    Family("hulthen", HulthenParams(2.0, 2.0),
           spectrum=lambda p: _sp.hulthen_spectrum(p),
           potential=lambda p, xi: eval_hulthen(p, xi),
           wavefunction=lambda p, level, path: _sp.hulthen_wavefunction(p, level, None, path),
           contour=lambda p: ArchContour(p.epsilon),
           grid=(-12.0, 12.0, 1001), tol_energy=1e-4, tol_residual=1e-4,
           aux_columns=("s", "tau_beta"),
           decay=lambda level: level.aux["kappa"],
           reach=lambda level: 350.0 / (1 + 2 * level.qn.N)),
)}


def _step_limits(k2, envelope, ranges, x, w, tol_residual):
    """(level, stretch) array of the largest step in s each stretch allows
    each level: the minimum of `_rule_grid`'s two Numerov bounds over the
    probe points x within the level's range. k2 and envelope are
    (level, probe) and w = a^2 + x^2 is (stretch, probe). The levels are
    taken _LEVEL_BLOCK at a time, which bounds the (level, stretch, probe)
    arrays on a long spectrum."""
    w34 = w ** 0.75
    bound = (240 * tol_residual / (_RESIDUAL_SAFETY * envelope * k2 ** 3)) ** 0.25
    ds = np.empty((len(k2), len(w)))
    for i in range(0, len(k2), _LEVEL_BLOCK):
        b = slice(i, i + _LEVEL_BLOCK)
        allowed = np.minimum(_STEP_THETA / np.sqrt(k2[b, None] * w), bound[b, None] / w34)
        ds[b] = np.min(np.where(x <= ranges[b, None, None], allowed, np.inf), axis=2)
    return ds


def _rule_grid(fam, params, levels, decay, ranges, tol_residual):
    """The stretched verify grid for `levels`, sized from the closed forms,
    their `decay` rates and their `ranges` L = log(1/tol_energy)/decay.

    The grid is Grid(-S, S, n, Stretched(contour, a)) on the canonical
    contour, so the local step in x is h(x) = sqrt(a^2 + x^2) ds.
    - Range: X = _RANGE_FACTOR max L (the ends shift an eigenvalue by about
      the square of the amplitude left there), at most the smallest `reach`; a sinh S = X.
    - Step: on a probe of the path out to X, each level's local wavenumber
      is k^2 = |Q - E W| (the unstretched Liouville normal form) plus
      1/(x^2 + d^2), d = min(eps, pi/2 - eps) the singularity distance.
      Out to its L the level needs k h <= _STEP_THETA and the s-space
      Numerov residual estimate (a^2 + x^2) e^{-decay x} h^4 k^6/240,
      times _RESIDUAL_SAFETY, within tol_residual.
    - a is the stretch, among 2^-j (j < 14) times the probed range, that
      needs the fewest points; n = 2 ceil(S/ds) + 1 is capped at
      _VERIFY_POINTS, and a level whose ds underflows to 0 needs unbounded
      points.
    Levels with a range beyond the reach or more points than the cap do
    not size the grid, unless no level can. `verify_family` types the rest.
    """
    contour = fam.contour(params)
    if not levels:
        return Grid(*fam.grid, contour)
    d = min(contour.epsilon, math.pi / 2 - contour.epsilon)
    reach = min(fam.reach(l) for l in levels)
    far = min(_RANGE_FACTOR * ranges.max(), reach)
    x = d * np.sinh(np.linspace(0.0, math.asinh(far / d), _PROBE_POINTS))
    xi, xp, xp2, xp3 = contour.jet(x)
    qv = xp ** 2 * fam.potential(params, xi)
    stretch = far * _STRETCHES[:, None]
    w = stretch ** 2 + x ** 2
    energy = np.array([l.energy for l in levels])[:, None]
    k2 = np.abs(add_curvature(qv - energy * xp ** 2, xp, xp2, xp3)) + 1 / (x * x + d * d)
    envelope = np.exp(-np.minimum(decay[:, None] * x, 700.0))
    ds = _step_limits(k2, envelope, ranges, x, w, tol_residual)

    def points(X):  # points each level needs, per stretch, to reach X
        span = np.arcsinh(X / stretch[:, 0])
        return 2 * np.ceil(np.divide(span, ds, out=np.full(ds.shape, np.inf), where=ds > 0)) + 1

    own = points(np.minimum(_RANGE_FACTOR * ranges, reach)[:, None]).min(axis=1)
    sizing = (ranges <= reach) & (own <= _VERIFY_POINTS)
    if not sizing.any():
        sizing[:] = True
    X = min(_RANGE_FACTOR * ranges[sizing].max(), reach)
    need = points(X)[sizing]
    j = int(np.argmin(need.max(axis=0)))
    a = float(stretch[j, 0])
    n = int(min(need[:, j].max(), _VERIFY_POINTS))
    return Grid(-math.asinh(X / a), math.asinh(X / a), n, Stretched(contour, a))


def verify_family(params, grid: Grid = None, tol_energy: float = None,
                  tol_residual: float = None) -> VerificationReport:
    """End-to-end check of a family's closed forms on the grid's contour.

    Enumerates the analytic spectrum, inverse-iterates the Numerov pencil
    at each analytic energy on the grid's refinement and then on the grid,
    from the even nodes of the refined eigenvector, and reports the
    PT defect (on 201 points of the grid's range) and a `LevelRecord` per
    level: the Richardson eigenvalue (16 lambda_fine - lambda_coarse)/15,
    and the Numerov residuals of the analytic wave function at both steps
    with their observed order. Each report samples its grid, and the
    factors its levels' wave functions share, once, on the refined grid
    (see the module docstring). A missing grid is the stretched grid
    `_rule_grid` sizes on the canonical contour for the tighter of each
    tolerance and the family's default. A
    given grid is used as it is; one without a contour gets the canonical
    contour. A level passes when its eigenvalue is within `tol_energy` of
    its energy and its stated-grid residual within `tol_residual`; both
    must be finite and > 0 (InvalidParameters). On any grid, the first of
    these reasons that applies types a failing level ResolutionLimit:
    1. its eigenvalue misses `tol_energy`, it decays to the tighter energy
       tolerance only past the grid's reach (the smaller |x| of the ends,
       x = a sinh s if Stretched), and the analytic unknown u at the ends
       moves the eigenvalue by 2 |u u'| / |integral of W u^2| (Green's
       identity), more than `tol_energy`;
    2. its Richardson correction |lambda_fine - lambda_coarse|/15 exceeds
       `tol_energy`;
    3. its residual exceeds `tol_residual` but falls, at a measured order
       in _ORDERS or, on at least _VERIFY_POINTS points, at order >= 1; the
       note names the step h (tol_residual/residual)^(1/order) that meets
       it, or the rounding floor eps (||A|| + |E| ||M||) above it;
    4. an inverse iteration does not settle (NoConvergence): the refined
       solve, which then skips the stated-grid solve, or the stated-grid
       solve, whose record counts the refined solve's sweeps too; each
       stops at _MAX_SWEEPS or as soon as its measured rate cannot settle
       within them (see `solve_targeted`).
    Other failures are plain. Constituent errors become failed entries,
    not exceptions, typed by their diagnostic and counting the sweeps run.
    """
    fam = next((f for f in FAMILIES.values() if isinstance(params, type(f.canonical))), None)
    if fam is None:
        raise TypeError(f"unknown parameter record {type(params).__name__}")
    tol_energy = fam.tol_energy if tol_energy is None else tol_energy
    tol_residual = fam.tol_residual if tol_residual is None else tol_residual
    if not all(math.isfinite(t) and t > 0 for t in (tol_energy, tol_residual)):
        raise InvalidParameters(f"tolerances must be finite and > 0, got "
                                f"tol_energy={tol_energy}, tol_residual={tol_residual}")
    levels = fam.spectrum(params)
    decay = np.array([fam.decay(l) for l in levels])
    ranges = math.log(1 / min(tol_energy, fam.tol_energy)) / decay
    if grid is None:
        grid = _rule_grid(fam, params, levels, decay, ranges,
                          min(tol_residual, fam.tol_residual))
    if grid.contour is None:
        grid = replace(grid, contour=fam.contour(params))
    contour = grid.contour
    # the grid's extent along the canonical path parameter x
    extent = min(abs(grid.x_min), abs(grid.x_max))
    if isinstance(contour, Stretched):
        extent = contour.a * float(np.sinh(extent))

    evaluator = lambda xi: fam.potential(params, xi)
    Hf = build_hamiltonian(evaluator, grid.refined())
    H = _stated_pencil(Hf, grid)
    xi_fine, _, xp_fine = Hf.samples
    h_fine = Hf.grid.h
    path = _sp.SampledPath(xi_fine)  # the factors every level's wave function shares
    scale = None  # the Liouville scale exp(-log(xi')/2) on the refined grid

    entries = []
    for level, L in zip(levels, ranges):
        qn, E = level.qn, level.energy
        iters, limit = 0, ""  # limit: why the grid does not resolve the level
        try:
            fine_res = solve_targeted(Hf, E)
            iters = fine_res.iterations
            # the refined grid's even interior nodes are the stated grid's
            coarse = solve_targeted(H, E, fine_res.eigenvector[2:-2:2])
            iters += coarse.iterations
            lam = (16 * fine_res.eigenvalue - coarse.eigenvalue) / 15
            psi = fam.wavefunction(params, level, path)
            if scale is None:
                scale = np.exp(-0.5 * _contour.continuous_log(xp_fine))
            u_f = psi * scale
            res_c = residual(u_f[::2], E, H)
            res_f = residual(u_f, E, Hf)
            order = math.log2(res_c / res_f) if res_f > 0 else float("nan")
            abs_err = abs(lam - E)
            ok = abs_err <= tol_energy and res_c <= tol_residual
            record = LevelRecord(qn.label(), qn.N, qn.sigma, qn.tau, E, lam, abs_err,
                                 abs(lam.imag), res_c, res_f, order, iters, ok)
            # Green's identity: the Dirichlet ends move the eigenvalue by 2|u u'| / |int W u^2|
            v = u_f / np.max(np.abs(u_f))  # scaled so that v * v stays finite
            ends = abs(v[0] * (v[1] - v[0])) + abs(v[-1] * (v[-1] - v[-2]))
            norm = abs(np.dot(xp_fine ** 2 * v, v)) * h_fine
            shift = 2 * ends / (h_fine * norm) if norm else math.inf
            step = abs(fine_res.eigenvalue - coarse.eigenvalue)
            falls = (_ORDERS[0] <= order <= _ORDERS[1]
                     or grid.n_points >= _VERIFY_POINTS and order >= 1)
            if abs_err > tol_energy and shift > tol_energy and L > extent:
                # the measured truncation shift explains the energy miss
                limit = f"needs |x| up to {L:.3g}, the grid reaches {extent:.3g}"
            elif not ok and step / 15 > tol_energy:
                # the Richardson correction itself misses the tolerance
                limit = (f"halving the step moves the eigenvalue by {step:.3g} "
                         f"and the residual from {res_c:.3g} to {res_f:.3g}")
            elif res_c > tol_residual and falls:
                # a finer step lowers the residual, down to its rounding floor
                floor = np.finfo(float).eps * (H.norms[0] + abs(E) * H.norms[1])
                need = grid.h * (tol_residual / res_c) ** (1 / order)
                limit = f"the residual {res_c:.3g} falls at order {order:.3g}; " + (
                    f"the tolerance is below its rounding floor {floor:.3g}" if tol_residual < floor
                    else f"it needs a step of about {need:.3g}, the grid has {grid.h:.3g}")
        except SpectraError as exc:
            record = LevelRecord(qn.label(), qn.N, qn.sigma, qn.tau, E,
                                 iterations=iters + getattr(exc, "iterations", 0),
                                 note=f"{type(exc).__name__}: {exc}", diagnostic=type(exc))
            if isinstance(exc, NoConvergence):
                # an unsettled eigenpair is below what the grid resolves
                limit = f"no settled eigenpair on {grid.n_points} points ({record.note})"
        if limit:
            record.diagnostic = ResolutionLimit
            record.note = f"{ResolutionLimit.__name__}: {limit}"
        entries.append(record)

    defect = pt_defect(evaluator, contour, np.linspace(grid.x_min, grid.x_max, 201))
    passed = all(e.converged for e in entries)
    return VerificationReport(fam.name, entries, passed, defect, grid, tol_energy, tol_residual)
