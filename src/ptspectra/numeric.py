"""Finite-difference verification engine for the closed forms.

The discrete operator is a three-point stencil along the contour with
Dirichlet truncation: the second derivative in the path parameter is
-(1/xi') d/dx ((1/xi') d/dx) in symmetric midpoint form, with the metric
factor 1/xi' evaluated at nodes and half-steps, plus V(xi(x_i)). On the
shifted line and the real line xi' = 1 and the same formula gives the
textbook Laplacian.
The contour is part of the `Grid`: `build_hamiltonian(evaluator, grid)`
discretizes along `grid.contour` (None is the real line), and
`solve_targeted(H, target)` inverse-iterates one eigenpair near `target`.

Verification runs the eigensolve on the stated grid and on the once
refined grid (same endpoints, halved step). The refined pass yields the
convergence-order table, and for families whose record sets `richardson`
the reported eigenvalue is the Richardson combination
(4*lambda_fine - lambda_coarse)/3, which removes the O(h^2) truncation
term of the stencil. Wave-function residuals always use the raw
three-point operator, so observed convergence orders stay meaningful.
Each analytic wave function is sampled once, on the refined grid; its
even nodes are the stated grid's nodes, bit for bit.

`FAMILIES` holds one `Family` record per parameter type; `verify_family`
and the CLI dispatch through it.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded

from .contour import ArchContour, ShiftedLine
from .errors import (
    InvalidParameters,
    MetricVanishing,
    NoConvergence,
    QRStall,
    ShiftSingular,
    SizeGuard,
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
_GIVEUP_RESIDUAL = 1e-6
_START_SEED = 42
_SWEEP_TOL = 1e-10
_MAX_SWEEPS = 200
_SHIFT_NUDGE = 1e-8 * (1 + 1j)
_DENSE_CAP = 1200
_RESIDUAL_BUFFER = 0.05


@dataclass(frozen=True)
class Grid:
    x_min: float
    x_max: float
    n_points: int
    contour: object = None

    def __post_init__(self):
        if self.n_points < 3:
            raise ValueError("grid needs at least 3 points")
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


@dataclass
class DiscretizedHamiltonian:
    """Complex tridiagonal operator on the grid's interior nodes.

    `bc_left`/`bc_right` are the couplings of the first/last interior row
    to the (Dirichlet-zero) boundary nodes; residual evaluation of analytic
    wave functions needs them to apply the full stencil.
    """

    diag: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    bc_left: complex
    bc_right: complex
    grid: Grid

    @property
    def n_interior(self) -> int:
        return len(self.diag)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """H v for an interior-node vector (boundary values taken as 0)."""
        w = self.diag * v
        w[1:] += self.lower * v[:-1]
        w[:-1] += self.upper * v[1:]
        return w

    def apply_full(self, psi: np.ndarray) -> np.ndarray:
        """Full stencil applied to a whole-grid sample, returned on the
        interior nodes; uses the actual boundary samples of psi."""
        if len(psi) != self.grid.n_points:
            raise ValueError("psi must be sampled on the full grid")
        w = self.apply(np.asarray(psi[1:-1], dtype=complex))
        w[0] += self.bc_left * psi[0]
        w[-1] += self.bc_right * psi[-1]
        return w

    def to_dense(self) -> np.ndarray:
        n = self.n_interior
        A = np.zeros((n, n), dtype=complex)
        idx = np.arange(n)
        A[idx, idx] = self.diag
        A[idx[1:], idx[:-1]] = self.lower
        A[idx[:-1], idx[1:]] = self.upper
        return A


@dataclass
class EigenResult:
    eigenvalue: complex
    eigenvector: np.ndarray
    residual: float
    iterations: int


def build_hamiltonian(evaluator, grid: Grid) -> DiscretizedHamiltonian:
    """Discretize -d^2/dxi^2 + V(xi) along the grid's contour.

    `grid.contour=None` means the real line (identity path). Every path
    goes through the midpoint metric form; where xi' = 1 (the real line, a
    ShiftedLine) its entries are those of the flat stencil.
    """
    contour = grid.contour
    x = grid.points()
    h = grid.h
    if contour is None:
        xi = x.astype(complex)
        xp_node = np.ones(len(x), dtype=complex)
        xp_half = xp_node[1:]
    else:
        xi = contour.point(x)
        xp_node = np.asarray(contour.derivative(x), dtype=complex)
        xp_half = np.asarray(contour.derivative(x[:-1] + h / 2), dtype=complex)
    V = np.asarray(evaluator(xi[1:-1]), dtype=complex)
    small = min(float(np.min(np.abs(xp_node))), float(np.min(np.abs(xp_half))))
    if small < _METRIC_FLOOR:
        raise MetricVanishing(f"|xi'| = {small:.3e} below {_METRIC_FLOOR:.1e} on the grid")
    m_i = 1.0 / xp_node[1:-1]
    m_minus = 1.0 / xp_half[:-1]     # xi' at i-1/2 for interior node i
    m_plus = 1.0 / xp_half[1:]       # xi' at i+1/2
    diag = m_i * (m_plus + m_minus) / h ** 2 + V
    lower = -(m_i[1:] * m_minus[1:]) / h ** 2
    upper = -(m_i[:-1] * m_plus[:-1]) / h ** 2
    return DiscretizedHamiltonian(diag, lower, upper,
                                  complex(-(m_i[0] * m_minus[0]) / h ** 2),
                                  complex(-(m_i[-1] * m_plus[-1]) / h ** 2),
                                  grid)


def solve_targeted(H: DiscretizedHamiltonian, target) -> EigenResult:
    """Shifted inverse iteration for the eigenpair nearest `target`.

    Starts from a seeded random vector and iterates until the residual
    drops to _SWEEP_TOL or _MAX_SWEEPS sweeps pass; the best eigenpair seen
    is returned, or NoConvergence if it never came close. A singular or
    overflowing shifted solve nudges the shift once by _SHIFT_NUDGE before
    ShiftSingular is raised; every solve that returns counts as a sweep.
    """
    n = H.n_interior
    rng = np.random.default_rng(_START_SEED)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    shift = complex(target)
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = H.upper
    ab[2, :-1] = H.lower
    best = None
    retried = False
    it = 0
    while it < _MAX_SWEEPS:
        ab[1, :] = H.diag - shift
        try:
            w = solve_banded((1, 1), ab, v)
        except np.linalg.LinAlgError:
            failure = "shifted system singular"
        else:
            it += 1
            nw = np.linalg.norm(w)
            failure = None if np.isfinite(nw) and nw != 0.0 else "shifted solve overflowed"
        if failure:
            if retried:
                raise ShiftSingular(f"{failure} at {shift}")
            shift = shift + _SHIFT_NUDGE
            retried = True
            continue
        w = w / nw
        Hw = H.apply(w)
        lam = np.vdot(w, Hw) / np.vdot(w, w)
        res = float(np.max(np.abs(Hw - lam * w)) / np.max(np.abs(w)))
        if best is None or res < best.residual:
            full = np.zeros(n + 2, dtype=complex)
            full[1:-1] = w
            best = EigenResult(complex(lam), full, res, it)
        if res <= _SWEEP_TOL:
            return best
        v = w
    # at most one solve fails before ShiftSingular, so a sweep has set `best`
    if best.residual > _GIVEUP_RESIDUAL:
        raise NoConvergence(
            f"inverse iteration at shift {target} stalled; best residual {best.residual:.3e}",
            best_residual=best.residual,
        )
    return best


def solve_dense(H: DiscretizedHamiltonian) -> list:
    """Full eigendecomposition of the dense matrix, sorted by real part."""
    if H.n_interior > _DENSE_CAP:
        raise SizeGuard(f"n = {H.n_interior} exceeds the dense cap {_DENSE_CAP}")
    A = H.to_dense()
    try:
        lam, vec = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise QRStall(str(exc)) from exc
    order = np.lexsort((lam.imag, lam.real))
    out = []
    for k in order:
        v = vec[:, k]
        res = float(np.max(np.abs(A @ v - lam[k] * v)) / np.max(np.abs(v)))
        full = np.zeros(H.n_interior + 2, dtype=complex)
        full[1:-1] = v
        out.append(EigenResult(complex(lam[k]), full, res, 0))
    return out


def residual(psi, E, H: DiscretizedHamiltonian) -> float:
    """max |(H psi - E psi)| over interior nodes, ends buffered, / max|psi|.

    psi is sampled on the full grid; a _RESIDUAL_BUFFER share of interior
    nodes at each end is excluded to keep boundary-truncation artifacts
    out of the norm. InvalidParameters when that leaves no node.
    """
    psi = np.asarray(psi, dtype=complex)
    r = H.apply_full(psi) - complex(E) * psi[1:-1]
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
    attribute sees every call. `contour(params, epsilon)` builds the
    canonical path: the shifted-line families take their shift from
    `params`, Hulthen's arch takes `epsilon` (None: pi/6).
    `canonical` is the README setup and the CLI's parameter defaults,
    `grid` the default (x_min, x_max, n_points), and `aux_columns` the
    level aux entries the spectrum table prints after kappa (a `_re`/`_im`
    suffix takes that part of a complex entry). The CLI selects a level by
    the quantum numbers it is given, the same way for every family.
    """

    name: str
    params: type
    canonical: object
    spectrum: Callable
    potential: Callable
    wavefunction: Callable
    contour: Callable
    grid: tuple
    tol_energy: float
    tol_residual: float
    richardson: bool
    aux_columns: tuple


# The flat tol_residual covers the sharpest canonical contour (eps=0.3, where
# the truncation term scales like 1/sin^4 eps); order checks do the real work.
# Hulthen reports the single-grid eigenvalue: its refined grid feeds only the
# residual order.
FAMILIES = {f.name: f for f in (
    Family("eckart", EckartParams, EckartParams(3.0, 1.0, 0.5),
           spectrum=lambda p: _sp.eckart_spectrum(p),
           potential=lambda p, xi: eval_eckart(p, xi),
           wavefunction=lambda p, level, contour, x:
               _sp.eckart_wavefunction(p, level, contour.point(x)),
           contour=lambda p, epsilon=None: ShiftedLine(p.epsilon),
           grid=(-18.0, 18.0, 4001), tol_energy=1e-5, tol_residual=1.5e-1,
           richardson=True,
           aux_columns=("u_re", "u_im", "v_re", "v_im")),
    Family("rpt", PoschlTellerParams, PoschlTellerParams(3.5, 1.5, 0.3),
           spectrum=lambda p: _sp.rpt_spectrum(p),
           potential=lambda p, xi: eval_rpt(p, xi),
           wavefunction=lambda p, level, contour, x:
               _sp.rpt_wavefunction(p, level, contour.point(x)),
           contour=lambda p, epsilon=None: ShiftedLine(p.epsilon),
           grid=(-12.0, 12.0, 3001), tol_energy=1e-6, tol_residual=1.5e-1,
           richardson=True, aux_columns=()),
    Family("hulthen", HulthenParams, HulthenParams(2.0, 2.0),
           spectrum=lambda p: _sp.hulthen_spectrum(p),
           potential=lambda p, xi: eval_hulthen(p, xi),
           wavefunction=lambda p, level, contour, x:
               _sp.hulthen_wavefunction(p, level, contour, x),
           contour=lambda p, epsilon=None:
               ArchContour(math.pi / 6 if epsilon is None else epsilon),
           grid=(-12.0, 12.0, 12001), tol_energy=1e-4, tol_residual=1e-4,
           richardson=False, aux_columns=("s", "tau_beta")),
)}


def verify_family(params, grid: Grid = None, tol_energy: float = None,
                  tol_residual: float = None) -> VerificationReport:
    """End-to-end check of a family's closed forms on the grid's contour.

    Enumerates the analytic spectrum, inverse-iterates the discretized
    operator at each analytic energy on the grid and its refinement,
    reports the eigenvalues (Richardson-extrapolated where the family
    record asks for it), wave-function residuals at both steps with the
    observed convergence order, and the PT defect. Each analytic wave
    function is sampled once, on the refined grid; the stated-grid
    residual reads its even nodes. A missing grid is the family's default
    grid; a grid without a contour gets the family's canonical contour.
    An eigenvalue must match its energy within `tol_energy` and have |Im|
    within 10 * `tol_energy`. Constituent errors become failed report
    entries, not exceptions.
    """
    fam = next((f for f in FAMILIES.values() if isinstance(params, f.params)), None)
    if fam is None:
        raise TypeError(f"unknown parameter record {type(params).__name__}")
    if tol_energy is None:
        tol_energy = fam.tol_energy
    tol_imag = 10 * tol_energy
    if tol_residual is None:
        tol_residual = fam.tol_residual
    if grid is None:
        grid = Grid(*fam.grid)
    if grid.contour is None:
        grid = replace(grid, contour=fam.contour(params))
    contour = grid.contour

    levels = fam.spectrum(params)
    evaluator = lambda xi: fam.potential(params, xi)
    fine = grid.refined()
    H = build_hamiltonian(evaluator, grid)
    Hf = build_hamiltonian(evaluator, fine)

    entries = []
    passed = True
    for level in levels:
        qn = level.qn
        E = level.energy
        try:
            coarse = solve_targeted(H, E)
            if fam.richardson:
                fine_res = solve_targeted(Hf, E)
                lam = (4 * fine_res.eigenvalue - coarse.eigenvalue) / 3
                iters = coarse.iterations + fine_res.iterations
            else:
                lam = coarse.eigenvalue
                iters = coarse.iterations
            psi_f = fam.wavefunction(params, level, contour, fine.points())
            res_c = residual(psi_f[::2], E, H)
            res_f = residual(psi_f, E, Hf)
            order = math.log2(res_c / res_f) if res_f > 0 else float("nan")
            abs_err = abs(lam - E)
            ok = abs_err <= tol_energy and abs(lam.imag) <= tol_imag and res_c <= tol_residual
            entries.append(LevelRecord(qn.label(), qn.N, qn.sigma, qn.tau, E, lam,
                                       abs_err, abs(lam.imag), res_c, res_f, order,
                                       iters, ok))
            passed = passed and ok
        except SpectraError as exc:
            entries.append(LevelRecord(qn.label(), qn.N, qn.sigma, qn.tau, E,
                                       complex("nan+nanj"), float("inf"), float("inf"),
                                       float("inf"), float("inf"), float("nan"), 0,
                                       False, f"{type(exc).__name__}: {exc}"))
            passed = False

    xs = np.linspace(-8.0, 8.0, 201)
    defect = pt_defect(evaluator, contour, xs)
    return VerificationReport(fam.name, entries, passed, defect,
                              grid, tol_energy, tol_imag, tol_residual)
