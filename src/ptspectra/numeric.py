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
`solve_targeted(H, target)` inverse-iterates one eigenpair of the pencil
near `target`, factoring A - target M once and stopping when the
eigenpair has settled relative to ||A||_inf + |target| ||M||_inf.

Verification solves the Numerov pencil on the stated grid and on the once
refined grid (same endpoints, halved step) for every family. The reported
eigenvalue is the Richardson combination (16*lambda_fine - lambda_coarse)/15,
which removes the O(h^4) truncation term of the stencil, and the refined
pass also yields the convergence-order table of the Numerov residuals.
Each analytic wave function is sampled once, on the refined grid, and
scaled to the Liouville unknown; its even nodes are the stated grid's
nodes, bit for bit.

Without a given grid, `verify_family` sizes a stretched grid from the
closed forms (`_rule_grid`): the canonical contour re-parametrised by
x = a sinh(s) (`Stretched`), uniform in s on [-S, S]. a sinh(S) reaches
past the range on which every level decays to tol_energy, a sets the
core step a ds from the shortest local wavelength and the singularity
distance eps, and n is the fewest points that meet the step and the
Numerov residual estimates, capped at 1001. A level the capped grid
cannot resolve (too many points, or a range past where its far field
stays finite) is still solved, but its entry is typed ResolutionLimit and
never passes. On every grid, given or sized, a failing level whose
eigenvalue or residual moves across its tolerance when the step is
halved, or whose inverse iteration does not settle, is typed the same way.

`FAMILIES` holds one `Family` record per parameter type; `verify_family`
and the CLI dispatch through it.
"""

import math
import operator
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.linalg.lapack import zgttrf, zgttrs

from .contour import (
    ArchContour,
    ShiftedLine,
    Stretched,
    add_curvature,
    continuous_log,
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
from . import spectra as _sp

_METRIC_FLOOR = 1e-10
_START_SEED = 42
_SWEEP_TOL = 1e-14
_MAX_SWEEPS = 200
_SHIFT_NUDGE = 1e-8 * (1 + 1j)
_RESIDUAL_BUFFER = 0.05
_MAX_POINTS = 10 ** 7
# The verify-grid rule (`_rule_grid`). Numerov's stencil is held to
# _STEP_THETA radians of the local wavenumber per step, and its h^4 residual
# estimate, with a _RESIDUAL_SAFETY margin, to tol_residual. The grid
# reaches _RANGE_FACTOR times the range on which each level decays to
# tol_energy, since the Dirichlet ends shift an eigenvalue by about the
# square of the amplitude left there. _VERIFY_POINTS caps the stated grid.
_VERIFY_POINTS = 1001
_STEP_THETA = 0.4
_RESIDUAL_SAFETY = 100.0
_RANGE_FACTOR = 1.5
_PROBE_POINTS = 200
_STRETCHES = 2.0 ** -np.arange(14)


@dataclass(frozen=True)
class Grid:
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
    sample needs. `norms` holds (||A||_inf, ||M||_inf), taken once when the
    pencil is built.
    """

    A: tuple
    M: tuple
    grid: Grid

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
    off, b0, b1 = -1.0 / grid.h ** 2, 10.0 / 12.0, 1.0 / 12.0

    def weighted(F):  # the rows of B diag(F)
        return b0 * F[1:-1], b1 * F[1:-2], b1 * F[2:-1], complex(b1 * F[0]), complex(b1 * F[-1])

    laplacian = (2.0 / grid.h ** 2, off, off, off, off)
    return DiscretizedHamiltonian(
        tuple(l + b for l, b in zip(laplacian, weighted(Q))), weighted(xp ** 2), grid)


def solve_targeted(H: DiscretizedHamiltonian, target) -> EigenResult:
    """Shifted inverse iteration for the eigenpair of A u = lambda M u
    nearest `target`.

    Starts from a seeded random vector; A - shift M is factored once
    (LAPACK gttrf) and each sweep is one gttrs solve of
    (A - shift M) w = M v. The eigenvalue is the Rayleigh quotient
    v^H A v / v^H M v and the residual max|A v - lambda M v| / max|v|. A
    sweep stops when the residual and the change of the Rayleigh quotient
    since the previous sweep are both within
    _SWEEP_TOL * (||A||_inf + |target| ||M||_inf): a small residual alone
    can be a pseudo-eigenpair of this non-normal pencil whose Rayleigh
    quotient still sits on the shift. No settled pair within _MAX_SWEEPS
    sweeps raises NoConvergence. A singular factor or an overflowing solve
    restarts once at the shift nudged by _SHIFT_NUDGE before ShiftSingular
    is raised. Fewer than 3 interior nodes raise InvalidParameters.
    """
    a_diag, a_lower, a_upper = H.A[:3]
    m_diag, m_lower, m_upper = H.M[:3]
    n = len(a_diag)
    if n < 3:
        raise InvalidParameters(f"{n} interior nodes; inverse iteration needs at least 3")
    tol = _SWEEP_TOL * (H.norms[0] + abs(target) * H.norms[1])
    rng = np.random.default_rng(_START_SEED)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    Mv = _band_product(H.M, v)
    lam_prev, best_residual, it = None, math.inf, 0
    for shift in (complex(target), complex(target) + _SHIFT_NUDGE):
        *lu, info = zgttrf(a_lower - shift * m_lower, a_diag - shift * m_diag,
                           a_upper - shift * m_upper)
        failure = "shifted system singular" if info > 0 else None
        while failure is None and it < _MAX_SWEEPS:
            w, _ = zgttrs(*lu, Mv)
            nw = np.linalg.norm(w)
            if not (np.isfinite(nw) and nw != 0.0):
                failure = "shifted solve overflowed"
                break
            it += 1
            v = w / nw
            Av, Mv = _band_product(H.A, v), _band_product(H.M, v)
            lam = complex(np.vdot(v, Av) / np.vdot(v, Mv))
            res = float(np.max(np.abs(Av - lam * Mv)) / np.max(np.abs(v)))
            best_residual = min(best_residual, res)
            if res <= tol and lam_prev is not None and abs(lam - lam_prev) <= tol:
                return EigenResult(lam, np.pad(v, 1), res, it)
            lam_prev = lam
        if failure is None:
            raise NoConvergence(
                f"inverse iteration at shift {target} did not settle in {_MAX_SWEEPS} "
                f"sweeps; best residual {best_residual:.3e}",
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


def pt_norm(psi, grid: Grid):
    """(PT bilinear integral psi^2 xi' dx, conventional integral |psi|^2 dx),
    trapezoid rule along the grid parameter; no conjugation in the first."""
    psi = np.asarray(psi, dtype=complex)
    x = grid.points()
    xip = grid.contour.derivative(x) if grid.contour is not None else np.ones_like(x)
    bilinear = complex(np.trapezoid(psi * psi * xip, x))
    conventional = float(np.trapezoid(np.abs(psi) ** 2, x))
    return bilinear, conventional


@dataclass
class LevelRecord:
    label: str
    N: int
    sigma: int
    tau: int
    E_analytic: float
    eigenvalue: complex
    abs_err: float
    im_abs: float
    residual: float
    residual_fine: float
    order: float
    iterations: int
    converged: bool
    note: str = ""


@dataclass
class VerificationReport:
    family: str
    entries: list
    passed: bool
    pt_defect: float
    grid: Grid
    tol_energy: float
    tol_imag: float
    tol_residual: float

    @property
    def convergence_table(self) -> list:
        return [
            {"label": e.label, "residual_h": e.residual,
             "residual_h_half": e.residual_fine, "order": e.order}
            for e in self.entries
        ]


@dataclass(frozen=True)
class Family:
    """What the verifier and the CLI know about one potential family.

    `spectrum(params)`, `potential(params, xi)` and
    `wavefunction(params, level, contour, x)` look the family functions up
    when called, not at import, so a wrapper installed on a module
    attribute sees every call. `contour(params)` builds the path of the
    record's `epsilon`: the shift of a ShiftedLine, the angle of
    Hulthen's ArchContour.
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
# wrong wave function (the printed Jacobi convention, tau-swapped rpt labels:
# 9 and more); the h -> h/2 order does the fine work.
FAMILIES = {f.name: f for f in (
    Family("eckart", EckartParams(3.0, 1.0, 0.5),
           spectrum=lambda p: _sp.eckart_spectrum(p),
           potential=lambda p, xi: eval_eckart(p, xi),
           wavefunction=lambda p, level, contour, x:
               _sp.eckart_wavefunction(p, level, contour.point(x)),
           contour=lambda p: ShiftedLine(p.epsilon),
           grid=(-18.0, 18.0, 1001), tol_energy=1e-5, tol_residual=1.5e-1,
           aux_columns=("u_re", "u_im", "v_re", "v_im"),
           decay=lambda level: level.aux["D"],
           reach=lambda level: 700.0),
    Family("rpt", PoschlTellerParams(3.5, 1.5, 0.3),
           spectrum=lambda p: _sp.rpt_spectrum(p),
           potential=lambda p, xi: eval_rpt(p, xi),
           wavefunction=lambda p, level, contour, x:
               _sp.rpt_wavefunction(p, level, contour.point(x)),
           contour=lambda p: ShiftedLine(p.epsilon),
           grid=(-12.0, 12.0, 1001), tol_energy=1e-6, tol_residual=1.5e-1,
           aux_columns=(),
           decay=lambda level: level.aux["kappa"],
           reach=lambda level: 700.0 / (1 + 2 * level.qn.N)),
    Family("hulthen", HulthenParams(2.0, 2.0),
           spectrum=lambda p: _sp.hulthen_spectrum(p),
           potential=lambda p, xi: eval_hulthen(p, xi),
           wavefunction=lambda p, level, contour, x:
               _sp.hulthen_wavefunction(p, level, contour, x),
           contour=lambda p: ArchContour(p.epsilon),
           grid=(-12.0, 12.0, 1001), tol_energy=1e-4, tol_residual=1e-4,
           aux_columns=("s", "tau_beta"),
           decay=lambda level: level.aux["kappa"],
           reach=lambda level: 350.0 / (1 + 2 * level.qn.N)),
)}


def _rule_grid(fam, params, levels, tol_energy, tol_residual):
    """(grid, notes): the stretched verify grid for `levels`, sized from the
    closed forms, and per level a ResolutionLimit note ("" when resolved).

    The grid is Grid(-S, S, n, Stretched(contour, a)) on the canonical
    contour, so the local step in x is h(x) = sqrt(a^2 + x^2) ds.
    - Range: a level decays to tol_energy at L = log(1/tol_energy)/decay;
      the grid reaches X = _RANGE_FACTOR max L, but no farther than the
      smallest `reach`, and a sinh S = X.
    - Step: on a probe of the path out to X, each level's local wavenumber
      is k^2 = |Q - E W| (the unstretched Liouville normal form) plus
      1/(x^2 + d^2), d = min(eps, pi/2 - eps) the singularity distance.
      Out to its L the level needs k h <= _STEP_THETA and the s-space
      Numerov residual estimate (a^2 + x^2) e^{-decay x} h^4 k^6/240,
      times _RESIDUAL_SAFETY, within tol_residual.
    - a is the stretch, among 2^-j (j < 14) times the probed range, that
      needs the fewest points; n = 2 ceil(S/ds) + 1 is capped at
      _VERIFY_POINTS.
    A level that needs a longer range than the grid reaches, or more points
    than the grid has, is typed. Levels that could not be resolved on their
    own do not size the grid, unless no level can be.
    """
    contour = fam.contour(params)
    if not levels:
        return Grid(*fam.grid, contour), []
    d = min(contour.epsilon, math.pi / 2 - contour.epsilon)
    ranges = np.array([math.log(1 / tol_energy) / fam.decay(l) for l in levels])
    reach = min(fam.reach(l) for l in levels)
    far = min(_RANGE_FACTOR * ranges.max(), reach)
    x = d * np.sinh(np.linspace(0.0, math.asinh(far / d), _PROBE_POINTS))
    xi, xp, xp2, xp3 = contour.jet(x)
    qv = xp ** 2 * fam.potential(params, xi)
    stretch = far * _STRETCHES[:, None]
    w = stretch ** 2 + x ** 2
    ds = []  # per level: the step in s each stretch allows
    for level, L in zip(levels, ranges):
        k2 = np.abs(add_curvature(qv - level.energy * xp ** 2, xp, xp2, xp3)) + 1 / (x * x + d * d)
        envelope = np.exp(-np.minimum(fam.decay(level) * x, 700.0))
        allowed = np.minimum(
            _STEP_THETA / np.sqrt(k2 * w),
            (240 * tol_residual / (_RESIDUAL_SAFETY * envelope * k2 ** 3)) ** 0.25 / w ** 0.75)
        ds.append(np.min(np.where(x <= L, allowed, np.inf), axis=1))
    ds = np.array(ds)

    def points(X):  # points each level needs, per stretch, to reach X
        return 2 * np.ceil(np.arcsinh(X / stretch[:, 0]) / ds) + 1

    own = points(np.minimum(_RANGE_FACTOR * ranges, reach)[:, None]).min(axis=1)
    sizing = (ranges <= reach) & (own <= _VERIFY_POINTS)
    if not sizing.any():
        sizing[:] = True
    X = min(_RANGE_FACTOR * ranges[sizing].max(), reach)
    need = points(X)
    j = int(np.argmin(need[sizing].max(axis=0)))
    a = float(stretch[j, 0])
    n = int(min(need[sizing, j].max(), _VERIFY_POINTS))
    notes = []
    for L, m in zip(ranges, need[:, j]):
        if L > X:
            notes.append(f"needs |x| up to {L:.3g}, the grid reaches {X:.3g}")
        elif m > n:
            notes.append(f"needs {int(m)} points, the grid has {n}")
        else:
            notes.append("")
    return Grid(-math.asinh(X / a), math.asinh(X / a), n, Stretched(contour, a)), notes


def verify_family(params, grid: Grid = None, tol_energy: float = None,
                  tol_residual: float = None) -> VerificationReport:
    """End-to-end check of a family's closed forms on the grid's contour.

    Enumerates the analytic spectrum, inverse-iterates the Numerov pencil
    at each analytic energy on the grid and its refinement, reports the
    fourth-order Richardson-extrapolated eigenvalues
    (16 lambda_fine - lambda_coarse)/15, Numerov residuals of the analytic
    wave function at both steps with the observed convergence order, and
    the PT defect. Each analytic wave function is sampled once, on the
    refined grid, and scaled to the Liouville unknown
    u = psi exp(-log(xi')/2) with the branch-continuous log (exactly psi
    where xi' = 1); the stated-grid residual reads its even nodes. A
    missing grid is the stretched grid `_rule_grid` sizes from the closed
    forms, on the canonical contour; a level that grid cannot resolve is
    still solved, but its entry is not converged and its note starts with
    ResolutionLimit. A given grid is used as it is, and one without a
    contour gets the family's canonical contour. On either grid, a failing
    level whose eigenvalue moves by more than `tol_energy`, or whose
    residual crosses `tol_residual`, when the step is halved, and a level
    whose inverse iteration does not settle, is typed ResolutionLimit too.
    The PT defect is sampled on 201 points of the grid's range. An
    eigenvalue must match its energy within `tol_energy` and have |Im|
    within 10 * `tol_energy`, and the stated-grid residual must be within
    `tol_residual`; both tolerances must be finite and > 0
    (InvalidParameters). Constituent errors become failed report entries,
    not exceptions; such an entry counts the sweeps already run.
    """
    fam = next((f for f in FAMILIES.values() if isinstance(params, type(f.canonical))), None)
    if fam is None:
        raise TypeError(f"unknown parameter record {type(params).__name__}")
    if tol_energy is None:
        tol_energy = fam.tol_energy
    if tol_residual is None:
        tol_residual = fam.tol_residual
    if not all(math.isfinite(t) and t > 0 for t in (tol_energy, tol_residual)):
        raise InvalidParameters(f"tolerances must be finite and > 0, got "
                                f"tol_energy={tol_energy}, tol_residual={tol_residual}")
    tol_imag = 10 * tol_energy
    levels = fam.spectrum(params)
    if grid is None:
        grid, limits = _rule_grid(fam, params, levels, tol_energy, tol_residual)
    else:
        limits = [""] * len(levels)
    if grid.contour is None:
        grid = replace(grid, contour=fam.contour(params))
    contour = grid.contour

    evaluator = lambda xi: fam.potential(params, xi)
    fine = grid.refined()
    x_fine = fine.points()
    xp_fine = contour.derivative(x_fine)
    H = build_hamiltonian(evaluator, grid)
    Hf = build_hamiltonian(evaluator, fine)

    entries = []
    for level, limit in zip(levels, limits):
        qn = level.qn
        E = level.energy
        iters = 0
        try:
            coarse = solve_targeted(H, E)
            iters = coarse.iterations
            fine_res = solve_targeted(Hf, E)
            iters += fine_res.iterations
            lam = (16 * fine_res.eigenvalue - coarse.eigenvalue) / 15
            u_f = (fam.wavefunction(params, level, contour, x_fine)
                   * np.exp(-0.5 * continuous_log(xp_fine)))
            res_c = residual(u_f[::2], E, H)
            res_f = residual(u_f, E, Hf)
            order = math.log2(res_c / res_f) if res_f > 0 else float("nan")
            abs_err = abs(lam - E)
            ok = abs_err <= tol_energy and abs(lam.imag) <= tol_imag and res_c <= tol_residual
            record = LevelRecord(qn.label(), qn.N, qn.sigma, qn.tau, E, lam, abs_err,
                                 abs(lam.imag), res_c, res_f, order, iters, ok)
            step = abs(fine_res.eigenvalue - coarse.eigenvalue)
            if not ok and (step > tol_energy or res_f <= tol_residual < res_c):
                # halving the step moves the verdict's quantities across a
                # tolerance: the stated grid does not resolve them
                limit = limit or (f"halving the step moves the eigenvalue by {step:.3g} "
                                  f"and the residual from {res_c:.3g} to {res_f:.3g}")
        except SpectraError as exc:
            record = LevelRecord(qn.label(), qn.N, qn.sigma, qn.tau, E,
                                 complex("nan+nanj"), float("inf"), float("inf"),
                                 float("inf"), float("inf"), float("nan"),
                                 iters + getattr(exc, "iterations", 0),
                                 False, f"{type(exc).__name__}: {exc}")
        if record.note.startswith(NoConvergence.__name__):
            # an eigenpair that does not settle on the grid is below what
            # the grid resolves in floating point
            limit = limit or f"no settled eigenpair on {grid.n_points} points ({record.note})"
        if limit:
            record.converged, record.note = False, f"{ResolutionLimit.__name__}: {limit}"
        entries.append(record)

    xs = np.linspace(grid.x_min, grid.x_max, 201)
    defect = pt_defect(evaluator, contour, xs)
    passed = all(e.converged for e in entries)
    return VerificationReport(fam.name, entries, passed, defect,
                              grid, tol_energy, tol_imag, tol_residual)
