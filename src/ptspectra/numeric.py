"""Finite-difference verification engine for the closed forms.

The discrete operator is a three-point stencil along the contour with
Dirichlet truncation. On the shifted line that is the textbook Laplacian
plus V(xi(x_i)); on a curved path the second derivative in the path
parameter is replaced by -(1/xi') d/dx ((1/xi') d/dx) in symmetric
midpoint form, with the metric factor 1/xi' evaluated at half-steps.

Verification runs the eigensolve on the stated grid and on the once
refined grid (same endpoints, halved step). The refined pass yields the
convergence-order table, and for families whose record sets `richardson`
the reported eigenvalue is the Richardson combination
(4*lambda_fine - lambda_coarse)/3, which removes the O(h^2) truncation
term of the stencil. Wave-function residuals always use the raw
three-point operator, so observed convergence orders stay meaningful.

`FAMILIES` holds one `Family` record per parameter type; `verify_family`
and the CLI dispatch through it.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded

from .contour import ArchContour, ShiftedLine
from .errors import (
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
    metric: str

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


def build_hamiltonian(evaluator, contour, grid: Grid) -> DiscretizedHamiltonian:
    """Discretize -d^2/dxi^2 + V(xi) along the contour.

    `contour=None` means the real line (identity path). A ShiftedLine has
    unit metric, so it shares the flat stencil; any other path goes through
    the curved-metric midpoint form.
    """
    if contour is None:
        contour = grid.contour
    x = grid.points()
    h = grid.h
    xi = x.astype(complex) if contour is None else contour.point(x)
    V = np.asarray(evaluator(xi[1:-1]), dtype=complex)
    flat = contour is None or isinstance(contour, ShiftedLine)
    if flat:
        diag = 2.0 / h ** 2 + V
        n_in = grid.n_points - 2
        off = np.full(n_in - 1, -1.0 / h ** 2, dtype=complex)
        return DiscretizedHamiltonian(diag, off, off.copy(), -1.0 / h ** 2, -1.0 / h ** 2,
                                      grid, "flat")
    xp_node = np.asarray(contour.derivative(x), dtype=complex)
    xp_half = np.asarray(contour.derivative(x[:-1] + h / 2), dtype=complex)
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
                                  grid, "curved")


def _solve_one(H: DiscretizedHamiltonian, target: complex, seed: int,
               tol: float, maxit: int) -> EigenResult:
    n = H.n_interior
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    shift = complex(target)
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = H.upper
    ab[2, :-1] = H.lower
    best = None
    retried = False
    it = 0
    while it < maxit:
        ab[1, :] = H.diag - shift
        try:
            w = solve_banded((1, 1), ab, v)
        except np.linalg.LinAlgError:
            if retried:
                raise ShiftSingular(f"shifted system singular at {shift}")
            shift = shift + 1e-8 * (1 + 1j)
            retried = True
            continue
        it += 1
        nw = np.linalg.norm(w)
        if not np.isfinite(nw) or nw == 0.0:
            if retried:
                raise ShiftSingular(f"shifted solve overflowed at {shift}")
            shift = shift + 1e-8 * (1 + 1j)
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
        if res <= tol:
            return best
        v = w
    if best is None or best.residual > _GIVEUP_RESIDUAL:
        raise NoConvergence(
            f"inverse iteration at shift {target} stalled; best residual "
            f"{best.residual if best else float('inf'):.3e}",
            best_residual=best.residual if best else None,
        )
    return best


def solve_targeted(H: DiscretizedHamiltonian, targets, seed: int = 42,
                   tol: float = 1e-10, maxit: int = 200) -> list:
    """Shifted inverse iteration, one eigenpair per target.

    Each target starts from the same seeded random vector and iterates
    until the residual drops to `tol` or `maxit` sweeps pass; the best
    eigenpair seen is returned, or NoConvergence if it never came close.
    """
    return [_solve_one(H, t, seed, tol, maxit) for t in targets]


def solve_dense(H: DiscretizedHamiltonian, size_cap: int = 1200) -> list:
    """Full eigendecomposition of the dense matrix, sorted by real part."""
    if H.n_interior > size_cap:
        raise SizeGuard(f"n = {H.n_interior} exceeds the dense cap {size_cap}")
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


def residual(psi, E, H: DiscretizedHamiltonian, buffer_frac: float = 0.05) -> float:
    """max |(H psi - E psi)| over interior nodes, ends buffered, / max|psi|.

    psi is sampled on the full grid; a `buffer_frac` share of interior
    nodes at each end is excluded to keep boundary-truncation artifacts
    out of the norm.
    """
    psi = np.asarray(psi, dtype=complex)
    r = H.apply_full(psi) - complex(E) * psi[1:-1]
    nb = int(math.ceil(buffer_frac * len(r)))
    core = r[nb:len(r) - nb] if nb else r
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
    `canonical` is the README setup and the CLI's parameter defaults, `grid`
    the default (x_min, x_max, n_points). `level_keys` are the quantum
    numbers that select one level, and `aux_columns` the level aux entries
    the spectrum table prints after kappa (a `_re`/`_im` suffix takes that
    part of a complex entry).
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
    level_keys: tuple
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
           richardson=True, level_keys=("N",),
           aux_columns=("u_re", "u_im", "v_re", "v_im")),
    Family("rpt", PoschlTellerParams, PoschlTellerParams(3.5, 1.5, 0.3),
           spectrum=lambda p: _sp.rpt_spectrum(p),
           potential=lambda p, xi: eval_rpt(p, xi),
           wavefunction=lambda p, level, contour, x:
               _sp.rpt_wavefunction(p, level, contour.point(x)),
           contour=lambda p, epsilon=None: ShiftedLine(p.epsilon),
           grid=(-12.0, 12.0, 3001), tol_energy=1e-6, tol_residual=1.5e-1,
           richardson=True, level_keys=("N", "sigma", "tau"), aux_columns=()),
    Family("hulthen", HulthenParams, HulthenParams(2.0, 2.0),
           spectrum=lambda p: _sp.hulthen_spectrum(p),
           potential=lambda p, xi: eval_hulthen(p, xi),
           wavefunction=lambda p, level, contour, x:
               _sp.hulthen_wavefunction(p, level, contour, x),
           contour=lambda p, epsilon=None:
               ArchContour(math.pi / 6 if epsilon is None else epsilon),
           grid=(-12.0, 12.0, 12001), tol_energy=1e-4, tol_residual=1e-4,
           richardson=False, level_keys=("N", "sigma"), aux_columns=("s", "tau_beta")),
)}


def verify_family(params, contour=None, grid: Grid = None, tol_energy: float = None,
                  tol_residual: float = None, seed: int = 42) -> VerificationReport:
    """End-to-end check of a family's closed forms on one contour.

    Enumerates the analytic spectrum, inverse-iterates the discretized
    operator at each analytic energy on the grid and its refinement,
    reports the eigenvalues (Richardson-extrapolated where the family
    record asks for it), wave-function residuals at both steps with the
    observed convergence order, and the PT defect. An eigenvalue must
    match its energy within `tol_energy` and have |Im| within
    10 * `tol_energy`. Constituent errors become failed report entries,
    not exceptions.
    """
    fam = next((f for f in FAMILIES.values() if isinstance(params, f.params)), None)
    if fam is None:
        raise TypeError(f"unknown parameter record {type(params).__name__}")
    if tol_energy is None:
        tol_energy = fam.tol_energy
    tol_imag = 10 * tol_energy
    if tol_residual is None:
        tol_residual = fam.tol_residual
    if contour is None:
        contour = fam.contour(params)
    if grid is None:
        grid = Grid(*fam.grid, contour)

    levels = fam.spectrum(params)
    evaluator = lambda xi: fam.potential(params, xi)
    fine = grid.refined()
    H = build_hamiltonian(evaluator, contour, grid)
    Hf = build_hamiltonian(evaluator, contour, fine)

    entries = []
    passed = True
    for level in levels:
        qn = level.qn
        E = level.energy
        try:
            coarse = _solve_one(H, E, seed, 1e-10, 200)
            if fam.richardson:
                fine_res = _solve_one(Hf, E, seed, 1e-10, 200)
                lam = (4 * fine_res.eigenvalue - coarse.eigenvalue) / 3
                iters = coarse.iterations + fine_res.iterations
            else:
                lam = coarse.eigenvalue
                iters = coarse.iterations
            psi_c = fam.wavefunction(params, level, contour, grid.points())
            psi_f = fam.wavefunction(params, level, contour, fine.points())
            res_c = residual(psi_c, E, H)
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
