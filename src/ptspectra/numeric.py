"""Finite-difference verification engine for the closed forms.

The one discrete operator is a complex tridiagonal pencil A u = lambda M u
on the grid's interior nodes, with Dirichlet truncation at the ends;
`DiscretizedHamiltonian` stores A and M alike, as three-band tuples. The
contour is part of the `Grid`; there is no implicit real line.

`build_hamiltonian(evaluator, grid)` is the fourth-order Numerov pencil
of the Liouville normal form along `grid.contour`. With the contour's jet
(xi, xi', xi'', xi''') the unknown is u = psi / sqrt(xi'), and the
equation in the path parameter reads -u'' + Q u = E W u with W and Q
from `contour.normal_form`, sampled as the rule grid's probe is. Numerov's
stencil turns it into A = L + B diag(Q) and M = B diag(W), where
L = tridiag(-1, 2, -1)/h^2 and B = tridiag(1, 10, 1)/12. On the shifted
line xi' = 1, so Q = V and W = 1. A |xi'| below `contour`'s one metric
floor, 1e-10, raises MetricVanishing here and SingularPoint in `contour`.
`solve_targeted(H, target, start=None)` inverse-iterates one eigenpair of
the pencil near `target` from `start` (by default a seeded random vector,
drawn on each call) at the one shift `target`: it factors A - target M
once, raises ShiftSingular when that factor is singular or a sweep's solve
overflows, and stops when the eigenpair has settled relative to
||A||_inf + |target| ||M||_inf, or when the measured rate of its residual
cannot get it there within the sweep budget. Each sweep applies M once
and takes A v from the shifted solve's own equation. Its two LAPACK
routines, zgttrf and zgttrs, come from scipy's compiled wrapper
`scipy.linalg._flapack`, loaded alone at the first solve (`_lapack`):
importing this module loads no scipy, and no solve runs the
`scipy.linalg` package's init.

Verification (`_verify_level`, one level at a time) samples each level's
analytic wave function first, then solves the Numerov pencil on the once
refined grid (same endpoints, halved step), from the analytic Liouville
unknown. The stated grid's eigenvalue is not solved for: it is the
two-sided quotient y^T A v / y^T M v of the stated pencil at v, the even
nodes of the refined eigenvector, with y = B^{-1} v the pencil's exact
left eigenvector wherever v is a right one (`_two_sided_quotient`), so
its error is second order in that of v. The reported eigenvalue is the
Richardson combination (16*lambda_fine - lambda_coarse)/15, which removes
the O(h^4) truncation term of the stencil, and the two grids give each
level's convergence order of the Numerov residuals. The refined grid's
even nodes are the stated grid's nodes, bit for bit, so each report
samples the path, the potential, the Liouville root
`contour.metric_root(xi')` and the path's factors (one
`spectra.SampledPath`) once, on the refined grid; the stated-grid pencil
and residual read their even nodes.

Without a given grid, `verify_family` sizes a stretched grid from the
closed forms and each level's decay rate `aux["kappa"]` (`_rule_grid`).
On every grid, given or sized, `_resolution_limit` types a failing level
the grid does not resolve ResolutionLimit. `require_finite` refuses every
sampled window past the far field, the CLI's included.

`FAMILIES` holds one `Family` record per parameter type; `verify_family`
and the CLI dispatch through it.
"""

import functools
import importlib.machinery
import importlib.util
import math
import operator
import os
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .contour import ArchContour, ShiftedLine, Stretched, normal_form
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

_START_SEED = 42
_SWEEP_TOL = 1e-14
_MAX_SWEEPS = 200
_RATE_FROM = 16  # the first sweep at which a measured rate can stop a solve
_RATE_SPAN = 8  # sweeps over which the residual's geometric rate is measured
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
_PENCIL_SAMPLES = "the path, Q or W is"  # what a non-finite pencil sample names
_FLAPACK = "scipy.linalg._flapack"


@dataclass(frozen=True)
class Grid:
    """`n_points` equally spaced path parameters x on [x_min, x_max], ends
    included, and the contour that maps them to path points. ValueError for
    non-finite bounds, a non-integer `n_points`, fewer than 3 or more than
    _MAX_POINTS points, or x_max <= x_min. `contour=None` is the family's
    canonical contour to `verify_family`; `build_hamiltonian` refuses it."""

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
        """Same endpoints, halved step: the 2n - 1 points `verify_family`
        also solves on. ValueError, stated for n, when they pass _MAX_POINTS."""
        n = 2 * self.n_points - 1
        if n > _MAX_POINTS:
            raise ValueError(f"verifying refines {self.n_points} points to 2n - 1 = {n}, past "
                             f"the cap of {_MAX_POINTS}, so n may be at most {(_MAX_POINTS + 1) // 2}")
        return Grid(self.x_min, self.x_max, n, self.contour)


def _band_product(bands, v, out=None):
    """The tridiagonal rows `bands` = (diag, lower, upper) applied to the
    interior vector v, the boundary nodes held at zero; written into `out`
    when given."""
    diag, lower, upper = bands
    w = np.multiply(diag, v, out=out)
    w[1:] += lower * v[:-1]
    w[:-1] += upper * v[1:]
    return w


def _norm_inf(bands) -> float:
    diag, lower, upper = bands
    rows = np.abs(diag)
    rows[1:] += np.abs(lower)
    rows[:-1] += np.abs(upper)
    return float(np.max(rows))


@dataclass
class DiscretizedHamiltonian:
    """Complex tridiagonal pencil A u = lambda M u on the grid's interior nodes.

    `A` and `M` each hold the three bands (diag, lower, upper) of the
    interior rows, with no coupling to the (Dirichlet-zero) end nodes: a
    solve holds them at zero and `residual` leaves out the rows next to
    them. `samples` holds the node samples (xi, xi', W, Q) a Numerov
    pencil was built from, on every node of the grid.
    """

    A: tuple
    M: tuple
    grid: Grid
    samples: tuple = ()

    @functools.cached_property
    def norms(self) -> tuple:
        """(||A||_inf, ||M||_inf), taken at the first read."""
        return _norm_inf(self.A), _norm_inf(self.M)


@dataclass
class EigenResult:
    eigenvalue: complex
    eigenvector: np.ndarray
    residual: float
    iterations: int


def require_finite(x, columns, what) -> None:
    """InvalidParameters "`what` not finite at x = ..." naming the first
    point of `x` at which one of the sampled `columns` is not finite: the
    window reaches past the far field that the closed forms can represent."""
    finite = np.isfinite(columns[0])
    for c in columns[1:]:
        finite &= np.isfinite(c)
    if not finite.all():
        raise InvalidParameters(f"{what} not finite at x = {x[np.argmin(finite)]:g}")


def _normal_form_samples(evaluator, contour, x):
    """(xi, xi', W, Q) at the path parameters x: the contour's jet and its
    `normal_form` with V = `evaluator(xi)`, formed with numpy's warnings
    off. MetricVanishing where |xi'| is below `contour`'s metric floor;
    InvalidParameters naming the first x at which xi, Q or W is not finite,
    past the far field that the path or the potential can represent."""
    floor = _contour._METRIC_FLOOR
    with np.errstate(all="ignore"):  # a non-finite sample is refused below
        jet = [np.asarray(c, dtype=complex) for c in contour.jet(x)]
        xi, xp = jet[:2]
        small = float(np.min(np.abs(xp)))
        if small < floor:
            raise MetricVanishing(f"|xi'| = {small:.3e} below {floor:.1e}")
        W, Q = normal_form(jet, np.asarray(evaluator(xi), dtype=complex))
    require_finite(x, (xi, Q, W), _PENCIL_SAMPLES)
    return xi, xp, W, Q


def build_hamiltonian(evaluator, grid: Grid) -> DiscretizedHamiltonian:
    """The Numerov pencil of -d^2/dxi^2 + V(xi) along the grid's contour.

    In Liouville normal form, u = psi / sqrt(xi'), the equation in the path
    parameter is -u'' + Q u = E W u, with W and Q the `contour.normal_form`
    of the contour's closed-form `jet` and V = `evaluator`. Numerov's
    O(h^4) stencil gives A = L + B diag(Q) and M = B diag(W), with
    L = tridiag(-1, 2, -1)/h^2 and B = tridiag(1, 10, 1)/12, as the bands
    of the interior rows. ValueError for a grid without a contour; raises
    as `_normal_form_samples` does, at the nodes.
    """
    if grid.contour is None:
        raise ValueError("build_hamiltonian needs a grid with a contour")
    return _numerov_pencil(*_normal_form_samples(evaluator, grid.contour, grid.points()), grid)


def _numerov_pencil(xi, xp, W, Q, grid: Grid) -> DiscretizedHamiltonian:
    """A = L + B diag(Q) and M = B diag(W) from the node samples W and Q
    on every node of `grid`; the path's xi and xi' are kept with them."""
    off, b0, b1 = -1.0 / grid.h ** 2, 10.0 / 12.0, 1.0 / 12.0

    def weighted(F):  # the rows of B diag(F)
        return b0 * F[1:-1], b1 * F[1:-2], b1 * F[2:-1]

    laplacian = (2.0 / grid.h ** 2, off, off)
    return DiscretizedHamiltonian(
        tuple(l + b for l, b in zip(laplacian, weighted(Q))), weighted(W), grid,
        (xi, xp, W, Q))


def _stated_pencil(Hf: DiscretizedHamiltonian, grid: Grid) -> DiscretizedHamiltonian:
    """The pencil on `grid` read from the even nodes of `Hf`, the pencil on
    `grid.refined()`: those nodes are `grid`'s nodes bit for bit, so the
    bands equal those of `build_hamiltonian` on `grid`."""
    return _numerov_pencil(*(sample[::2] for sample in Hf.samples), grid)


def _start_vector(n: int) -> np.ndarray:
    """The unit start vector of inverse iteration on n nodes, seeded with
    _START_SEED and drawn on each call."""
    rng = np.random.default_rng(_START_SEED)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    return v


@functools.cache
def _lapack():
    """(zgttrf, zgttrs) from scipy's compiled LAPACK wrapper, the extension
    module scipy.linalg._flapack, loaded without running the `scipy` or
    `scipy.linalg` package init.

    A wrapper module already in sys.modules (scipy.linalg imported first)
    is reused. Otherwise the extension is found in scipy's `linalg`
    directory, located by `importlib.util.find_spec("scipy")`, which runs no
    package code, and registered in sys.modules under its full name, so a
    later `import scipy.linalg` reuses this module object. That import then
    binds no `_flapack` attribute on the package, since the import system
    binds a submodule to its parent only when it loads it:
    `scipy.linalg._flapack` raises AttributeError, while
    `from scipy.linalg import _flapack` and scipy's own `lapack` module
    reach this module object through sys.modules. ImportError names what was
    looked for when scipy or the extension is missing.
    """
    module = sys.modules.get(_FLAPACK)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        if scipy is None or not scipy.submodule_search_locations:
            raise ImportError("the eigen-solver needs scipy's LAPACK wrappers, "
                              "and no scipy package was found", name="scipy")
        linalg = [os.path.join(d, "linalg") for d in scipy.submodule_search_locations]
        spec = importlib.machinery.PathFinder.find_spec(_FLAPACK, linalg)
        if spec is None:
            raise ImportError(f"no extension module {_FLAPACK} in "
                              f"{os.pathsep.join(linalg)}", name=_FLAPACK)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_FLAPACK] = module
    return module.zgttrf, module.zgttrs


@np.errstate(over="ignore")  # a norm that overflows is refused as such
def solve_targeted(H: DiscretizedHamiltonian, target, start=None) -> EigenResult:
    """Shifted inverse iteration for the eigenpair of A u = lambda M u
    nearest `target`.

    Starts from `start`, a vector on the interior nodes, or by default from
    a seeded random unit vector drawn on each call. The one shift is the
    target: A - shift M is factored once (LAPACK gttrf), and each sweep is
    one gttrs solve of (A - shift M) w = M v_prev and one band product M v
    of v = w / ||w||. The solve's equation gives A v = shift M v + g with
    g = M v_prev / ||w||, so no sweep applies A: the eigenvalue is the
    Rayleigh quotient v^H A v / v^H M v = shift + v^H g / v^H M v, and the
    residual max|A v - lambda M v| / max|v| is
    max|g - (lambda - shift) M v| / max|v|,
    which differs from the one formed from the bands by rounding, a few
    eps (||A|| + |lambda| ||M||). A sweep stops when the residual and the
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
    eigenpair". A singular factor raises ShiftSingular before any sweep,
    and a sweep whose solve overflows (a norm ||w|| that is not finite, or
    0) raises it there; both messages name the shift. Fewer than 3 interior
    nodes raise InvalidParameters.
    """
    # loaded at the first solve, not with the module: the closed-form
    # commands never solve
    zgttrf, zgttrs = _lapack()

    a_diag, a_lower, a_upper = H.A
    m_diag, m_lower, m_upper = H.M
    n = len(a_diag)
    if n < 3:
        raise InvalidParameters(f"{n} interior nodes; inverse iteration needs at least 3")
    tol = _SWEEP_TOL * (H.norms[0] + abs(target) * H.norms[1])
    Mv = _band_product(H.M, _start_vector(n) if start is None else start)
    Mw = np.empty(n, dtype=complex)  # where a sweep puts M v; it then swaps with Mv
    u = np.zeros(n + 2, dtype=complex)  # the iterate with its Dirichlet ends
    v = u[1:-1]
    shift = complex(target)
    *lu, info = zgttrf(a_lower - shift * m_lower, a_diag - shift * m_diag,
                       a_upper - shift * m_upper)
    if info > 0:
        raise ShiftSingular(f"shifted system singular at {shift}")
    lam_prev, best_residual, q = None, math.inf, math.nan
    history = []  # the residual of each sweep
    for it in range(1, _MAX_SWEEPS + 1):
        w, _ = zgttrs(*lu, Mv)
        nw = np.linalg.norm(w)
        if not (np.isfinite(nw) and nw != 0.0):
            raise ShiftSingular(f"shifted solve overflowed at {shift}")
        # numpy divides a complex array by a real scalar as a product with
        # its reciprocal; written so, it skips the complex division loop
        scale = 1.0 / nw
        np.multiply(w, scale, out=v)
        g = np.multiply(Mv, scale, out=Mv)  # A v = shift M v + g, by the solve's equation
        Mv, Mw = _band_product(H.M, v, out=Mw), g
        step = complex(np.vdot(v, g) / np.vdot(v, Mv))
        lam = shift + step
        res = float(np.abs(g - step * Mv).max() / np.abs(v).max())
        best_residual = min(best_residual, res)
        if res <= tol and lam_prev is not None and abs(lam - lam_prev) <= tol:
            return EigenResult(lam, u, res, it)
        lam_prev = lam
        history.append(res)
        if it >= _RATE_FROM:
            past = history[-1 - _RATE_SPAN]
            q = (res / past) ** (1 / _RATE_SPAN) if past > 0 else math.inf
            if q >= 1 or res > tol and it + math.log(tol / res) / math.log(q) > _MAX_SWEEPS:
                break
    raise NoConvergence(
        f"inverse iteration at shift {target} did not settle in {it} sweeps: "
        f"its residual changed by a factor {q:.3g} per sweep over the last "
        f"{_RATE_SPAN}; best residual {best_residual:.3e}",
        best_residual=best_residual, iterations=it,
    )


def _two_sided_quotient(H: DiscretizedHamiltonian, v) -> complex:
    """y^T A v / y^T M v for the Numerov pencil H at v on its interior
    nodes, with y = B^{-1} v, B = tridiag(1, 10, 1)/12.

    On a uniform step L and B are polynomials in one symmetric Toeplitz
    matrix, so they commute, and (A - lambda M)^T y = B^{-1}(L + B D) v with
    D = diag(Q - lambda W): y is a left eigenvector wherever v is a right
    one, and the quotient's error is second order in the eigenvector error
    of v (Parlett, Math. Comp. 28, 679, 1974). The one solve is with
    12 B = tridiag(1, 10, 1), whose factor depends only on n and whose
    scale the quotient does not see, by the solver's LAPACK gttrf/gttrs.
    Fewer than 3 interior nodes raise InvalidParameters.
    """
    n = len(v)
    if n < 3:
        raise InvalidParameters(f"{n} interior nodes; the stated-grid eigenvalue needs at least 3")
    zgttrf, zgttrs = _lapack()
    ones = np.ones(n - 1, dtype=complex)
    *lu, _ = zgttrf(ones, np.full(n, 10.0 + 0j), ones)
    y, _ = zgttrs(*lu, v)
    return complex(np.dot(y, _band_product(H.A, v)) / np.dot(y, _band_product(H.M, v)))


def residual(psi, E, H: DiscretizedHamiltonian) -> float:
    """max |A psi - E M psi| over interior nodes, ends buffered, / max|psi|.

    psi is sampled on the full grid (ValueError otherwise); for the Numerov
    pencil it is the Liouville unknown u = psi / sqrt(xi'). A
    _RESIDUAL_BUFFER share of interior nodes at each end, at least one, is
    excluded to keep boundary-truncation artifacts out of the norm, so the
    end nodes count only in max|psi|. InvalidParameters when none is left,
    and when the residual is not finite: formed with numpy's overflow
    warnings off, it overflows for a psi near the float maximum.
    """
    psi = np.asarray(psi, dtype=complex)
    if len(psi) != H.grid.n_points:
        raise ValueError("psi must be sampled on the full grid")
    v = psi[1:-1]
    nb = int(math.ceil(_RESIDUAL_BUFFER * len(v)))
    if len(v) <= 2 * nb:
        raise InvalidParameters(f"{len(v)} interior nodes leave no residual core")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below when not finite
        r = _band_product(H.A, v) - complex(E) * _band_product(H.M, v)
        res = float(np.max(np.abs(r[nb:len(r) - nb])) / np.max(np.abs(psi)))
    if not math.isfinite(res):
        raise InvalidParameters(f"the residual is not finite: {res:g}")
    return res


@dataclass
class LevelRecord:
    """One level's verdict in a `VerificationReport`.

    `label`, `N`, `sigma`, `tau` name the level and `E_analytic` is its
    closed-form energy; `eigenvalue` is the Richardson eigenvalue, `abs_err`
    its distance from `E_analytic` and `im_abs` its |Im|; `residual` and
    `residual_fine` are the Numerov residuals of the analytic wave function
    on the stated and the refined grid, `order` their log2 ratio, and
    `iterations` the sweeps of the refined solve, the one inverse iteration
    a level runs. A level whose solve or sample raised keeps the failure
    defaults nan+nanj, inf, inf, inf, inf, nan, and the sweeps run before
    the error. `converged` means "passed the verdict" (default
    False); the name stays for the verify CSV header and report readers.
    `note` is the human text of a failure ("" on a pass), and `diagnostic`
    the `SpectraError` subclass that typed it: the error's type, or
    ResolutionLimit for one of `_resolution_limit`'s reasons. It is None on a
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
    `reach(level)` is the path range |x| on which a level's far field stays
    finite in floating point: sinh and cosh overflow past |x| of about 710
    and the arch's height past 355, and a degree-N Jacobi factor of cosh 2r
    grows as e^{2N|x|}. Every family's levels state their decay rate along
    the path as `aux["kappa"]`. The CLI selects a level by the quantum
    numbers it is given, the same way for every family.
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
           reach=lambda level: 700.0),
    Family("rpt", PoschlTellerParams(3.5, 1.5, 0.3),
           spectrum=lambda p: _sp.rpt_spectrum(p),
           potential=lambda p, xi: eval_rpt(p, xi),
           wavefunction=lambda p, level, path: _sp.rpt_wavefunction(p, level, path),
           contour=lambda p: ShiftedLine(p.epsilon),
           grid=(-12.0, 12.0, 1001), tol_energy=1e-6, tol_residual=1.5e-1,
           aux_columns=(),
           reach=lambda level: 700.0 / (1 + 2 * level.qn.N)),
    Family("hulthen", HulthenParams(2.0, 2.0),
           spectrum=lambda p: _sp.hulthen_spectrum(p),
           potential=lambda p, xi: eval_hulthen(p, xi),
           wavefunction=lambda p, level, path: _sp.hulthen_wavefunction(p, level, None, path),
           contour=lambda p: ArchContour(p.epsilon),
           grid=(-12.0, 12.0, 1001), tol_energy=1e-4, tol_residual=1e-4,
           aux_columns=("s", "tau_beta"),
           reach=lambda level: 350.0 / (1 + 2 * level.qn.N)),
)}


def _step_limits(k2, envelope, ranges, x, w, tol_residual):
    """(level, stretch) array of the largest step in s each stretch allows
    each level: the minimum of `_rule_grid`'s two Numerov bounds over the
    probe points x within the level's range. k2 and envelope are
    (level, probe) and w = a^2 + x^2 is (stretch, probe). The levels are
    taken _LEVEL_BLOCK at a time, which bounds the (level, stretch, probe)
    arrays on a long spectrum. Where k2^3 overflows the bound is 0, its limit."""
    w34 = w ** 0.75
    with np.errstate(over="ignore"):
        bound = (240 * tol_residual / (_RESIDUAL_SAFETY * envelope * k2 ** 3)) ** 0.25
    ds = np.empty((len(k2), len(w)))
    for i in range(0, len(k2), _LEVEL_BLOCK):
        b = slice(i, i + _LEVEL_BLOCK)
        allowed = np.minimum(_STEP_THETA / np.sqrt(k2[b, None] * w), bound[b, None] / w34)
        ds[b] = np.min(np.where(x <= ranges[b, None, None], allowed, np.inf), axis=2)
    return ds


def _rule_grid(fam, params, levels, kappa, ranges, tol_residual):
    """The stretched verify grid for `levels`, sized from the closed forms,
    their decay rates `kappa` and their `ranges` L = log(1/tol_energy)/kappa,
    and the points each level's own rule grid needs.

    The grid is Grid(-S, S, n, Stretched(contour, a)) on the canonical
    contour, so the local step in x is h(x) = sqrt(a^2 + x^2) ds.
    - Range: X = _RANGE_FACTOR max L (the ends shift an eigenvalue by about
      the square of the amplitude left there), at most the smallest `reach`; a sinh S = X.
    - Step: on a probe of the path out to X, each level's local wavenumber
      is k^2 = |Q - E W| (the unstretched Liouville normal form) plus
      1/(x^2 + d^2), d = min(eps, pi/2 - eps) the singularity distance.
      Out to its L the level needs k h <= _STEP_THETA and the s-space
      Numerov residual estimate (a^2 + x^2) e^{-kappa x} h^4 k^6/240,
      times _RESIDUAL_SAFETY, within tol_residual.
    - a is the stretch, among 2^-j (j < 14) times the probed range, that
      needs the fewest points; n = 2 ceil(S/ds) + 1 is capped at
      _VERIFY_POINTS, and a level whose ds underflows to 0 needs unbounded
      points.
    Levels with a range beyond the reach or more points than the cap do
    not size the grid, unless no level can. `verify_family` types the rest
    (`_resolution_limit`'s reasons 1 and 5).
    The probe raises as `build_hamiltonian` does (`_normal_form_samples`).
    """
    contour = fam.contour(params)
    if not levels:
        return Grid(*fam.grid, contour), np.zeros(0)
    d = min(contour.epsilon, math.pi / 2 - contour.epsilon)
    reach = min(fam.reach(l) for l in levels)
    far = min(_RANGE_FACTOR * ranges.max(), reach)
    x = d * np.sinh(np.linspace(0.0, math.asinh(far / d), _PROBE_POINTS))
    _, _, W, Q = _normal_form_samples(lambda xi: fam.potential(params, xi), contour, x)
    stretch = far * _STRETCHES[:, None]
    w = stretch ** 2 + x ** 2
    energy = np.array([l.energy for l in levels])[:, None]
    k2 = np.abs(Q - energy * W) + 1 / (x * x + d * d)
    envelope = np.exp(-np.minimum(kappa[:, None] * x, 700.0))
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
    return Grid(-math.asinh(X / a), math.asinh(X / a), n, Stretched(contour, a)), own


def _resolution_limit(record, step, v, L, own, Hf, H, tol_energy, tol_residual) -> str:
    """Why `H.grid` does not resolve a failing level, or "": `record` holds
    its verdict figures, `step` is |lambda_fine - lambda_coarse|, `v` the
    analytic unknown u on the refined grid of `Hf` scaled to a peak of 1,
    L the range at which it decays to the tighter energy tolerance, and
    `own` the points its own rule grid needs (0 on a given grid).
    The first of these reasons that applies types the level ResolutionLimit:
    1. its eigenvalue misses `tol_energy`, L lies past the grid's reach (the
       smaller |x| of the ends, x = a sinh s if Stretched), and the analytic
       unknown at the ends moves the eigenvalue by 2 |u u'| / |integral of
       W u^2| (Green's identity), more than `tol_energy`;
    2. its Richardson correction step/15 exceeds `tol_energy`;
    3. its residual exceeds `tol_residual` but falls, at a measured order
       in _ORDERS or, on at least _VERIFY_POINTS points, at order >= 1; the
       note names the step h (tol_residual/residual)^(1/order) that meets
       it, or the rounding floor eps (||A|| + |E| ||M||) above it;
    4. the refined grid's inverse iteration does not settle (NoConvergence
       at _MAX_SWEEPS, or at a measured rate that cannot settle within
       them; see `solve_targeted`), typed by `_verify_level`;
    5. its own rule grid needs more than _VERIFY_POINTS points (`_rule_grid`
       caps the grid there); the note names the points it needs.
    """
    grid, res_c, order = H.grid, record.residual, record.order
    # the grid's extent along the canonical path parameter x
    extent = min(abs(grid.x_min), abs(grid.x_max))
    if isinstance(grid.contour, Stretched):
        extent = grid.contour.a * float(np.sinh(extent))
    if record.abs_err > tol_energy and L > extent:
        # Green's identity: the Dirichlet ends move the eigenvalue by 2|u u'| / |int W u^2|
        h_fine = Hf.grid.h
        ends = abs(v[0] * (v[1] - v[0])) + abs(v[-1] * (v[-1] - v[-2]))
        norm = abs(np.dot(Hf.samples[2] * v, v)) * h_fine
        if (2 * ends / (h_fine * norm) if norm else math.inf) > tol_energy:
            # the measured truncation shift explains the energy miss
            return f"needs |x| up to {L:.3g}, the grid reaches {extent:.3g}"
    if step / 15 > tol_energy:
        # the Richardson correction itself misses the tolerance
        return (f"halving the step moves the eigenvalue by {step:.3g} "
                f"and the residual from {res_c:.3g} to {record.residual_fine:.3g}")
    if res_c > tol_residual and (_ORDERS[0] <= order <= _ORDERS[1]
                                 or grid.n_points >= _VERIFY_POINTS and order >= 1):
        # a finer step lowers the residual, down to its rounding floor
        floor = np.finfo(float).eps * (H.norms[0] + abs(record.E_analytic) * H.norms[1])
        need = grid.h * (tol_residual / res_c) ** (1 / order)
        return f"the residual {res_c:.3g} falls at order {order:.3g}; " + (
            f"the tolerance is below its rounding floor {floor:.3g}" if tol_residual < floor
            else f"it needs a step of about {need:.3g}, the grid has {grid.h:.3g}")
    if own > _VERIFY_POINTS:
        return (f"its rule grid needs {own:.3g} points, past the cap of {_VERIFY_POINTS}; "
                f"the grid has {grid.n_points}")
    return ""


def _verify_level(fam, params, level, L, own, Hf, H, x_fine, path, root,
                  tol_energy, tol_residual) -> LevelRecord:
    """One level's `LevelRecord`: its wave function sampled on `path`, the
    refined grid's points `x_fine`, as the Liouville unknown u = psi /
    `root()` starts the solve of `Hf` at its energy, and the two-sided
    quotient of `H` at that eigenvector's even nodes is the stated grid's
    eigenvalue. A `SpectraError` becomes a failed record typed by the error
    and counting the sweeps run, 0 for a sample that fails, a Liouville
    unknown that is not finite among them (`require_finite`, naming the
    wave function); a residual that overflows raises in `residual`.
    `_resolution_limit` types a failing level, given L and `own`, the
    points its own rule grid needs."""
    qn, E = level.qn, level.energy
    iters, limit = 0, ""  # limit: why the grid does not resolve the level
    try:
        with np.errstate(all="ignore"):  # a non-finite sample is refused below
            u_f = fam.wavefunction(params, level, path) / root()
        require_finite(x_fine, (u_f,), "the wave function is")
        v = u_f / np.max(np.abs(u_f))  # scaled so that v * v stays finite
        fine = solve_targeted(Hf, E, v[1:-1])
        iters = fine.iterations
        # the refined grid's even interior nodes are the stated grid's
        coarse = _two_sided_quotient(H, fine.eigenvector[2:-2:2])
        lam = (16 * fine.eigenvalue - coarse) / 15
        res_c = residual(u_f[::2], E, H)
        res_f = residual(u_f, E, Hf)
        order = math.log2(res_c / res_f) if res_f > 0 else float("nan")
        abs_err = abs(lam - E)
        ok = abs_err <= tol_energy and res_c <= tol_residual
        record = LevelRecord(qn.label(), qn.N, qn.sigma, qn.tau, E, lam, abs_err,
                             abs(lam.imag), res_c, res_f, order, iters, ok)
        if not ok:
            limit = _resolution_limit(record, abs(fine.eigenvalue - coarse), v, L,
                                      own, Hf, H, tol_energy, tol_residual)
    except SpectraError as exc:
        record = LevelRecord(qn.label(), qn.N, qn.sigma, qn.tau, E,
                             iterations=iters + getattr(exc, "iterations", 0),
                             note=f"{type(exc).__name__}: {exc}", diagnostic=type(exc))
        if isinstance(exc, NoConvergence):
            # reason 4: an unsettled eigenpair is below what the grid resolves
            limit = (f"no settled eigenpair on the refined grid's {Hf.grid.n_points} points "
                     f"({record.note})")
    if limit:
        record.diagnostic = ResolutionLimit
        record.note = f"{ResolutionLimit.__name__}: {limit}"
    return record


def verify_family(params, grid: Grid = None, tol_energy: float = None,
                  tol_residual: float = None) -> VerificationReport:
    """End-to-end check of a family's closed forms on the grid's contour.

    Enumerates the analytic spectrum and reports the PT defect (on 201
    points of the grid's range) and a `_verify_level` record per level: the
    Richardson eigenvalue and the Numerov residuals of the analytic wave
    function on the grid and its refinement, with their observed order
    (see the module docstring). A missing grid is the stretched grid
    `_rule_grid` sizes on the canonical contour for the tighter of each
    tolerance and the family's default; a given grid is used as it is, and
    one without a contour gets the canonical contour. A level passes when
    its eigenvalue is within `tol_energy` of its energy and its stated-grid
    residual within `tol_residual`; both must be finite and > 0
    (InvalidParameters). A failing level the grid does not resolve is typed
    ResolutionLimit (`_resolution_limit`); other failures are plain, and
    constituent errors become failed entries, not exceptions.
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
    kappa = np.array([l.aux["kappa"] for l in levels])
    ranges = math.log(1 / min(tol_energy, fam.tol_energy)) / kappa
    own = np.zeros(len(levels))  # a given grid is the caller's choice
    if grid is None:
        grid, own = _rule_grid(fam, params, levels, kappa, ranges,
                               min(tol_residual, fam.tol_residual))
    if grid.contour is None:
        grid = replace(grid, contour=fam.contour(params))

    evaluator = lambda xi: fam.potential(params, xi)
    Hf = build_hamiltonian(evaluator, grid.refined())
    H = _stated_pencil(Hf, grid)
    path = _sp.SampledPath(Hf.samples[0])  # the factors every level's wave function shares
    # sqrt(xi') on the refined grid, formed once a level needs it; one that raises fails each level
    root = functools.cache(lambda: _contour.metric_root(Hf.samples[1]))
    x_fine = Hf.grid.points()
    entries = [_verify_level(fam, params, level, L, n, Hf, H, x_fine, path, root,
                             tol_energy, tol_residual)
               for level, L, n in zip(levels, ranges, own)]

    defect = pt_defect(evaluator, grid.contour, np.linspace(grid.x_min, grid.x_max, 201))
    passed = all(e.converged for e in entries)
    return VerificationReport(fam.name, entries, passed, defect, grid, tol_energy, tol_residual)
