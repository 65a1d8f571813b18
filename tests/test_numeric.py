import dataclasses
import importlib.machinery
import importlib.util
import math
import sys
import warnings

import numpy as np
import pytest
from scipy.linalg import eig, eigvals, lapack, solve_banded

from ptspectra import (
    ArchContour,
    DiscretizedHamiltonian,
    EckartParams,
    Grid,
    HulthenParams,
    InvalidParameters,
    NoConvergence,
    PoschlTellerParams,
    ResolutionLimit,
    ShiftedLine,
    ShiftSingular,
    SingularPoint,
    Stretched,
    build_hamiltonian,
    eckart_spectrum,
    eckart_wavefunction,
    eval_eckart,
    eval_hulthen,
    eval_rpt,
    hulthen_spectrum,
    residual,
    rpt_spectrum,
    rpt_wavefunction,
    solve_targeted,
    verify_family,
)
from ptspectra import contour, numeric, spectra
from ptspectra.numeric import FAMILIES

ECK = EckartParams(3.0, 1.0, 0.5)
RPT = PoschlTellerParams(3.5, 1.5, 0.3)
# the oscillator's spectrum does not depend on the shift of the line
LINE = ShiftedLine(0.3)


def _ham(params, eps, a, b, n):
    line = ShiftedLine(eps)
    grid = Grid(a, b, n, line)
    ev = eval_eckart if isinstance(params, EckartParams) else eval_rpt
    return build_hamiltonian(lambda z: ev(params, z), grid), grid, line


def test_grid_basics():
    g = Grid(-1.0, 1.0, 5, None)
    assert g.h == pytest.approx(0.5)
    assert np.allclose(g.points(), [-1, -0.5, 0, 0.5, 1])
    assert g.refined().n_points == 9
    with pytest.raises(ValueError):
        Grid(-1.0, 1.0, 2, None)
    with pytest.raises(ValueError):
        Grid(1.0, -1.0, 5, None)
    for bounds in ((-1.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="grid bounds must be finite"):
            Grid(*bounds, 5)
    for n in (5.5, math.nan, 1001.0):
        with pytest.raises(ValueError, match="n_points must be an integer"):
            Grid(-1.0, 1.0, n)
    assert Grid(-1.0, 1.0, np.int64(5)).refined().n_points == 9


def test_grid_point_cap():
    assert numeric._MAX_POINTS == 10 ** 7
    assert Grid(-1.0, 1.0, numeric._MAX_POINTS).n_points == 10 ** 7
    for n in (10 ** 7 + 1, 10 ** 11):
        with pytest.raises(ValueError, match=f"grid of {n} points exceeds the cap of 10000000"):
            Grid(-1.0, 1.0, n)


def test_verify_states_the_refinement_cap_before_building(monkeypatch):
    # verifying also solves on the 2n - 1 refined points: n = 5000000 refines
    # to 9999999, within the cap, and n = 5000001 to 10000001, past it
    assert Grid(-1.0, 1.0, 5_000_000).refined().n_points == numeric._MAX_POINTS - 1
    message = ("verifying refines 5000001 points to 2n - 1 = 10000001, past the cap "
               "of 10000000, so n may be at most 5000000")

    def build(*args):
        raise AssertionError("a pencil was built")

    monkeypatch.setattr(numeric, "build_hamiltonian", build)
    monkeypatch.setattr(Grid, "points", build)
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify_family(ECK, Grid(-18.0, 18.0, 5_000_001))


@pytest.mark.parametrize("grid", [
    (-1.0, 1.0, 5), (-18.0, 18.0, 4001), (-12.0, 12.0, 3001), (-12.0, 12.0, 12001),
    (-0.3, 1.7, 7), (-5.0, 3.0, 1001), (0.1, 0.7, 3), (-math.pi, math.e, 777),
])
def test_refined_even_nodes_are_the_grid_bitwise(grid):
    g = Grid(*grid)
    assert np.array_equal(g.refined().points()[::2], g.points())


@pytest.mark.parametrize("name", list(FAMILIES))
def test_stated_pencil_from_the_refined_samples_is_build_hamiltonian(name):
    # verify_family samples the path and the potential only on the refined
    # grid and reads the stated-grid pencil off its even nodes: exact only
    # while every sample there is the stated grid's, bit for bit
    fam = FAMILIES[name]
    params = fam.canonical
    evaluator = lambda xi: fam.potential(params, xi)
    for grid in (verify_family(params).grid, Grid(*fam.grid, fam.contour(params))):
        H = build_hamiltonian(evaluator, grid)
        stated = numeric._stated_pencil(build_hamiltonian(evaluator, grid.refined()), grid)
        assert stated.grid == grid
        for ours, direct in zip(stated.A + stated.M + stated.samples, H.A + H.M + H.samples):
            assert np.array_equal(ours, direct)


def test_harmonic_ground_state():
    g = Grid(-10.0, 10.0, 2001, LINE)
    H = build_hamiltonian(lambda z: z ** 2, g)
    r = solve_targeted(H, 1.0)
    assert abs(r.eigenvalue - 1.0) <= 1e-4


def test_complex_symmetric_discretization():
    H, _, _ = _ham(RPT, 0.3, -12, 12, 301)
    a_diag, a_lower, a_upper = H.A
    _, m_lower, m_upper = H.M
    # M = B = M^T and A = L + B diag(V) with L, B symmetric, not Hermitian:
    # M's sub- and superdiagonal, and the two off-diagonal entries of each
    # column of A, are equal bit for bit
    assert np.array_equal(m_lower, m_upper)
    assert np.array_equal(a_lower[1:], a_upper[:-1])
    assert np.any(a_diag.imag)


def test_a_grid_without_a_contour_is_refused():
    # there is no implicit real line; only verify_family fills in a contour
    with pytest.raises(ValueError, match="needs a grid with a contour"):
        build_hamiltonian(lambda z: z ** 2, Grid(-10.0, 10.0, 401))


def test_metric_vanishing_guard():
    class _Pinched:
        def jet(self, x):
            zero = np.zeros(np.shape(x), dtype=complex)
            return np.asarray(x, dtype=complex), zero + 1e-12, zero, zero

    g = Grid(-1.0, 1.0, 11, _Pinched())
    with pytest.raises(SingularPoint, match="^xi' vanishes: "):
        build_hamiltonian(lambda z: np.zeros_like(z), g)


@pytest.mark.parametrize("name, x_max", [("eckart", 720.0), ("rpt", 720.0), ("hulthen", 400.0)])
def test_a_window_past_the_far_field_is_an_input_error(name, x_max):
    # the line's sinh overflows past |x| of about 710 and the arch's sinh^2
    # past 355: the pencil would not be finite, which is not a singular shift
    fam = FAMILIES[name]
    grid = Grid(-x_max, x_max, 201, fam.contour(fam.canonical))
    with pytest.raises(InvalidParameters, match=f"not finite at x = -{x_max:g}$"):
        build_hamiltonian(lambda z: fam.potential(fam.canonical, z), grid)
    with pytest.raises(InvalidParameters, match=f"not finite at x = -{x_max:g}$"):
        verify_family(fam.canonical, grid)


def test_a_wave_function_past_its_far_field_is_an_input_error_of_its_level():
    # cosh 2r overflows past |x| of about 355: the degree-1 Jacobi factor of
    # (-,-,1) is not finite at the window's ends, while that of the degree-0
    # levels is 1; the other levels keep their own verdicts. The wave function
    # starts the level's solve, so a failed sample runs no sweep
    rep = verify_family(RPT, Grid(-400.0, 400.0, 4001, ShiftedLine(0.3)))
    by_label = {e.label: e for e in rep.entries}
    far = by_label["(-,-,1)"]
    assert far.diagnostic is InvalidParameters and not far.converged
    assert far.note == "InvalidParameters: the wave function is not finite at x = -400"
    assert far.iterations == 0 and math.isinf(far.residual)
    assert by_label["(-,-,0)"].diagnostic is ResolutionLimit
    assert by_label["(-,-,0)"].note.startswith("ResolutionLimit: halving the step")
    assert by_label["(-,+,0)"].converged and by_label["(-,+,0)"].diagnostic is None


def test_targeted_eckart_raw_grid():
    H, _, _ = _ham(ECK, 0.5, -18, 18, 4001)
    res = [solve_targeted(H, E) for E in (-3.75, 0.0)]
    for r, E in zip(res, (-3.75, 0.0)):
        assert abs(r.eigenvalue - E) <= 2e-4
        assert abs(r.eigenvalue.imag) <= 1e-7
        assert r.residual <= 1e-10


def test_targeted_rpt_raw_grid():
    H, _, _ = _ham(RPT, 0.3, -12, 12, 3001)
    res = [solve_targeted(H, E) for E in (-16.0, -4.0, -1.0)]
    for r, E in zip(res, (-16.0, -4.0, -1.0)):
        assert abs(r.eigenvalue - E) <= 1e-3
        assert abs(r.eigenvalue.imag) <= 1e-7


def test_targeted_far_target_is_flagged():
    # +100 sits in the discretized continuum; whatever comes back must not
    # look like a confirmation of the target
    H, _, _ = _ham(RPT, 0.3, -12, 12, 3001)
    try:
        r = solve_targeted(H, 100.0)
        assert abs(r.eigenvalue - 100.0) > 0.1
    except NoConvergence:
        pass


def test_targeted_never_confirms_perturbed_energy():
    H, _, _ = _ham(ECK, 0.5, -18, 18, 4001)
    r = solve_targeted(H, -3.75 + 0.5)
    # converges back to the true eigenvalue, half a unit away
    assert abs(r.eigenvalue - (-3.75)) <= 1e-3
    assert abs(r.eigenvalue - (-3.25)) > 0.4


def _dense(bands):
    diag, lower, upper = bands
    return np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)


def test_targeted_shift_on_exact_eigenvalue():
    g = Grid(-4.0, 4.0, 41, LINE)
    H = build_hamiltonian(lambda z: z ** 2, g)
    lams = eig(_dense(H.A), _dense(H.M), right=False)
    lam = lams[np.argmin(lams.real)]
    r = solve_targeted(H, lam)
    assert abs(r.eigenvalue - lam) <= 1e-8


def test_targeted_rejects_a_pseudo_eigenpair(monkeypatch):
    # A residual-only relative stop accepts the first sweep here: its residual
    # is within the stop tolerance while the Rayleigh quotient still sits on
    # the shift (|dE| ~ 4e-13); the settled eigenvalue is ~ 3e-6 away.
    params = PoschlTellerParams(2.482097341632171, 7.429994529557295, 0.43308273382987594)
    fam = FAMILIES["rpt"]
    grid = Grid(-12.0, 12.0, 1001, fam.contour(params)).refined()
    H = build_hamiltonian(lambda z: eval_rpt(params, z), grid)
    level = next(l for l in rpt_spectrum(params) if l.qn.label() == "(-,-,4)")
    with monkeypatch.context() as m:
        m.setattr(numeric, "_MAX_SWEEPS", 1)
        with pytest.raises(NoConvergence) as info:
            solve_targeted(H, level.energy)
    tol = numeric._SWEEP_TOL * (H.norms[0] + abs(level.energy) * H.norms[1])
    assert info.value.best_residual <= tol
    r = solve_targeted(H, level.energy)
    assert r.iterations >= 2
    assert abs(r.eigenvalue - level.energy) >= 1e-6


def test_targeted_unsettled_solve_is_no_convergence():
    params = HulthenParams(1.034496611022668, 1.8605910872978733)
    fam = FAMILIES["hulthen"]
    H = build_hamiltonian(lambda z: eval_hulthen(params, z),
                          Grid(*fam.grid, fam.contour(params)))
    with pytest.raises(NoConvergence) as info:
        solve_targeted(H, 728.19)
    assert 0 < info.value.best_residual < math.inf
    # the measured rate (about 0.89 per sweep) stops it well before the budget
    assert numeric._RATE_FROM <= info.value.iterations < numeric._MAX_SWEEPS
    assert f"did not settle in {info.value.iterations} sweeps" in str(info.value)
    assert "per sweep over the last 8" in str(info.value)
    (entry,) = verify_family(params).entries
    assert hulthen_spectrum(params)[0].energy == pytest.approx(728.19, abs=1e-2)
    # on the rule grid the level passes or is typed, never a plain failure
    assert entry.converged or entry.diagnostic is ResolutionLimit
    if not entry.converged:
        assert entry.note.startswith("ResolutionLimit: no settled eigenpair on")
        assert "(NoConvergence: inverse iteration at shift" in entry.note
        assert "per sweep" in entry.note
        assert entry.iterations < numeric._MAX_SWEEPS


def _analytic_start(fam, params, level, Hf):
    """The start `verify_family` gives a level's refined solve: the analytic
    Liouville unknown psi / sqrt(xi') on the interior nodes of Hf, the
    refined pencil, scaled to a peak of 1."""
    xi, xp = Hf.samples[:2]
    u = fam.wavefunction(params, level, spectra.SampledPath(xi)) / contour.metric_root(xp)
    return (u / np.max(np.abs(u)))[1:-1]


def test_a_failed_solve_keeps_the_sweeps_run_before_it(monkeypatch):
    # the refined solve is a level's one inverse iteration: a stalled one
    # types the level and its record keeps the sweeps it ran
    grid = verify_family(ECK).grid
    calls = []

    def stalls(Hg, target, start=None):
        calls.append(Hg.grid.n_points)
        raise NoConvergence("stalled", iterations=7)

    monkeypatch.setattr(numeric, "solve_targeted", stalls)
    entries = verify_family(ECK, grid).entries
    assert entries
    assert calls == [grid.refined().n_points] * len(entries)
    for e in entries:
        assert e.diagnostic is ResolutionLimit and not e.converged
        assert e.note == (f"ResolutionLimit: no settled eigenpair on the refined grid's "
                          f"{grid.refined().n_points} points (NoConvergence: stalled)")
        assert e.iterations == 7


def _diagonal(d):
    d = np.asarray(d, dtype=complex)
    z = np.zeros(len(d) - 1, dtype=complex)
    identity = (np.ones(len(d), dtype=complex), z, z)
    return DiscretizedHamiltonian((d, z, z.copy()), identity, Grid(-1.0, 1.0, len(d) + 2))


def test_a_callers_write_does_not_reach_the_next_default_start_solve():
    H, _, _ = _ham(ECK, 0.5, -18.0, 18.0, 401)
    E = eckart_spectrum(ECK)[0].energy
    first = solve_targeted(H, E)
    kept = first.eigenvector.copy()
    first.eigenvector[:] = 7.0  # a caller's write must not reach the next solve
    second = solve_targeted(H, E)
    assert (second.eigenvalue, second.residual, second.iterations) == (
        first.eigenvalue, first.residual, first.iterations)
    assert np.array_equal(second.eigenvector, kept)


def test_a_failed_sample_is_a_failed_entry_per_level(monkeypatch):
    # the wave function is sampled inside each level's error handling,
    # before the solves it starts
    good = verify_family(ECK)

    def broken(*args, **kwargs):
        raise SingularPoint("patched")

    monkeypatch.setattr(spectra, "eckart_wavefunction", broken)
    rep = verify_family(ECK)
    assert not rep.passed and len(rep.entries) == len(good.entries) > 1
    for e in rep.entries:
        assert not e.converged and e.diagnostic is SingularPoint
        assert e.note == "SingularPoint: patched"
        assert e.iterations == 0  # no solve ran


@pytest.mark.parametrize("name, logs", [("eckart", 2), ("rpt", 3), ("hulthen", 4)])
def test_a_report_takes_each_path_log_once(monkeypatch, name, logs):
    # the levels of a report share one sampled path: log sinh r for Eckart's
    # 2 levels, log sinh r and log cosh r for rpt's 3, and for Hulthen's one
    # level those two and the arch's log r'; each count adds the report's
    # one Liouville-scale log
    calls = []
    real = contour.continuous_log
    monkeypatch.setattr(contour, "continuous_log",
                        lambda values: calls.append(1) or real(values))
    fam = FAMILIES[name]
    rep = verify_family(fam.canonical)
    assert rep.passed and len(rep.entries) == {"eckart": 2, "rpt": 3, "hulthen": 1}[name]
    assert len(calls) == logs


def test_targeted_singular_shift_raises_at_the_target():
    # the target is an eigenvalue, so A - target M is singular; no other
    # shift is tried
    with pytest.raises(ShiftSingular) as info:
        solve_targeted(_diagonal([1.0, 2.0, 3.0]), 1.0)
    assert str(info.value) == "shifted system singular at (1+0j)"


@pytest.mark.parametrize("start", [np.zeros(3), np.full(3, np.nan)], ids=["zero", "nan"])
def test_targeted_solve_without_a_finite_nonzero_norm_raises_where_seen(start):
    with pytest.raises(ShiftSingular) as info:
        solve_targeted(_diagonal([1.0, 2.0, 3.0]), 1.5, start)
    assert str(info.value) == "shifted solve overflowed at (1.5+0j)"


@pytest.mark.parametrize("d, target, raised", [
    ([1.0, 2.0, 3.0], 1.1, None),  # settles
    ([1.0, 3.0, 6.0, 10.0], 2.0, NoConvergence),  # an equidistant pair: the rate stops it
    ([1.0, 2.0, 3.0], 1.0, ShiftSingular),  # singular at the target
], ids=["settled", "rate-stopped", "singular"])
def test_targeted_factors_one_shift_once(monkeypatch, d, target, raised):
    zgttrf, zgttrs = numeric._lapack()
    factors = []
    monkeypatch.setattr(numeric, "_lapack",
                        lambda: (lambda *bands: factors.append(1) or zgttrf(*bands), zgttrs))
    if raised is None:
        assert abs(solve_targeted(_diagonal(d), target).eigenvalue - 1.0) <= 1e-12
    else:
        with pytest.raises(raised):
            solve_targeted(_diagonal(d), target)
    assert len(factors) == 1


@pytest.fixture
def uncached_lapack():
    """`numeric._lapack` with its cache emptied before and after the test."""
    numeric._lapack.cache_clear()
    yield numeric._lapack
    numeric._lapack.cache_clear()


def test_the_solver_takes_scipys_own_lapack_routines(uncached_lapack):
    # this process imported scipy.linalg first: its wrapper module is reused
    zgttrf, zgttrs = uncached_lapack()
    assert zgttrf is lapack.zgttrf and zgttrs is lapack.zgttrs


@pytest.mark.parametrize("finder, looked_for", [
    (importlib.util, "scipy"),
    (importlib.machinery.PathFinder, "scipy.linalg._flapack"),
])
def test_a_missing_lapack_wrapper_fails_the_first_solve(uncached_lapack, monkeypatch,
                                                        finder, looked_for):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(finder, "find_spec", lambda *args: None)
    with pytest.raises(ImportError, match=looked_for) as info:
        solve_targeted(_diagonal([1.0, 2.0, 3.0]), 1.0)
    assert info.value.name == looked_for


def test_targeted_stops_an_equidistant_pair_by_its_rate():
    # 1 and 3 are equally far from the shift 2: the iterate keeps both
    # components, its residual does not fall, and the rate stops the solve
    with pytest.raises(NoConvergence) as info:
        solve_targeted(_diagonal([1.0, 3.0, 6.0, 10.0]), 2.0)
    assert info.value.iterations == numeric._RATE_FROM < numeric._MAX_SWEEPS
    assert "changed by a factor 1 per sweep" in str(info.value)
    assert info.value.best_residual > 0.1


def test_targeted_slow_but_converging_solve_is_not_stopped():
    # neighbour ratio 1/1.25 = 0.8 per sweep: the rate predicts a settled
    # pair within the budget, so the solve runs on until it settles
    r = solve_targeted(_diagonal([1.0, 1.25, 3.0, 5.0]), 0.0)
    assert abs(r.eigenvalue - 1.0) <= 1e-12
    assert 100 < r.iterations < numeric._MAX_SWEEPS


def test_targeted_starts_from_the_given_vector():
    # an exact eigenvector stays one, even off the eigenvalue nearest the shift
    r = solve_targeted(_diagonal([1.0, 2.0, 3.0]), 1.1, start=np.array([0.0, 0.0, 1.0]))
    assert r.eigenvalue == 3.0 and r.iterations == 2


@pytest.mark.parametrize("name", list(FAMILIES))
def test_default_start_is_the_seeded_vector(name):
    fam = FAMILIES[name]
    grid = verify_family(fam.canonical).grid
    H = build_hamiltonian(lambda z: fam.potential(fam.canonical, z), grid)
    seeded = numeric._start_vector(len(H.A[0]))
    for level in fam.spectrum(fam.canonical):
        cold, given = solve_targeted(H, level.energy), solve_targeted(H, level.energy, seeded)
        assert (cold.eigenvalue, cold.residual, cold.iterations) == (
            given.eigenvalue, given.residual, given.iterations)
        assert np.array_equal(cold.eigenvector, given.eigenvector)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_warm_start_from_the_refined_eigenvector(name):
    # the analytic unknown starts the refined solve, and the refined
    # eigenvector's even interior nodes can start a stated-grid solve: each
    # gives the same eigenvalue as a cold start, the analytic start in fewer
    # sweeps and the refined eigenvector in no more
    fam = FAMILIES[name]
    grid = verify_family(fam.canonical).grid
    Hf = build_hamiltonian(lambda z: fam.potential(fam.canonical, z), grid.refined())
    H = numeric._stated_pencil(Hf, grid)
    for level in fam.spectrum(fam.canonical):
        fine = solve_targeted(Hf, level.energy, _analytic_start(fam, fam.canonical, level, Hf))
        fine_cold = solve_targeted(Hf, level.energy)
        assert abs(fine.eigenvalue - fine_cold.eigenvalue) <= 1e-11
        assert fine.iterations < fine_cold.iterations
        warm = solve_targeted(H, level.energy, fine.eigenvector[2:-2:2])
        cold = solve_targeted(H, level.energy)
        assert abs(warm.eigenvalue - cold.eigenvalue) <= 1e-11
        assert warm.iterations <= cold.iterations


def _stated_levels(fam, params):
    """(level, stated pencil, refined eigenvector) for each level of a
    report on the rule grid, the refined solve started as `verify_family`
    starts it."""
    grid = verify_family(params).grid
    Hf = build_hamiltonian(lambda z: fam.potential(params, z), grid.refined())
    H = numeric._stated_pencil(Hf, grid)
    return [(level, H, solve_targeted(Hf, level.energy,
                                      _analytic_start(fam, params, level, Hf)).eigenvector)
            for level in fam.spectrum(params)]


def _transposed(bands):
    diag, lower, upper = bands
    return diag, upper, lower


@pytest.mark.parametrize("fam, params", [(f, f.canonical) for f in FAMILIES.values()] + [
    (FAMILIES["rpt"], PoschlTellerParams(2.482097341632171, 7.429994529557295,
                                         0.43308273382987594))])
def test_b_inverse_of_a_right_eigenvector_is_a_left_one(fam, params):
    # L and B commute on a uniform step, so y = B^{-1} v solves
    # y^T (A - lambda M) = 0 wherever (A - lambda M) v = 0; y is formed here
    # by scipy's banded solver, not the verifier's
    for level, H, fine in _stated_levels(fam, params):
        right = solve_targeted(H, level.energy, fine[2:-2:2])
        v, lam = right.eigenvector[1:-1], right.eigenvalue
        bands = np.zeros((3, len(v)))
        bands[0, 1:], bands[1], bands[2, :-1] = 1 / 12, 10 / 12, 1 / 12
        y = solve_banded((1, 1), bands, v)
        left = (numeric._band_product(_transposed(H.A), y)
                - lam * numeric._band_product(_transposed(H.M), y))
        scale = H.norms[0] + abs(lam) * H.norms[1]
        assert np.max(np.abs(left)) / np.max(np.abs(y)) <= 1e-14 * scale


@pytest.mark.parametrize("name", list(FAMILIES))
def test_the_two_sided_quotient_is_the_stated_grid_eigenvalue(name):
    # the stated-grid solve from the refined eigenvector's even nodes is the
    # oracle; the quotient at those nodes is second order in their error
    fam = FAMILIES[name]
    for level, H, fine in _stated_levels(fam, fam.canonical):
        oracle = solve_targeted(H, level.energy, fine[2:-2:2]).eigenvalue
        assert abs(numeric._two_sided_quotient(H, fine[2:-2:2]) - oracle) <= 1e-10


def test_the_two_sided_quotient_needs_three_interior_nodes():
    H = build_hamiltonian(lambda z: z ** 2, Grid(-1.0, 1.0, 4, LINE))
    with pytest.raises(InvalidParameters, match="2 interior nodes"):
        numeric._two_sided_quotient(H, np.ones(2, dtype=complex))


@pytest.mark.parametrize("name", list(FAMILIES))
def test_the_reported_residual_is_the_formed_one(name):
    # the solve takes A v from its own equation, (A - shift M) w = M v_prev;
    # the residual that gives differs from max|A v - lambda M v| / max|v|
    # formed from the bands by the rounding of the products and the solve
    fam = FAMILIES[name]
    grid = verify_family(fam.canonical).grid
    eps = np.finfo(float).eps
    for g in (grid, grid.refined()):
        H = build_hamiltonian(lambda z: fam.potential(fam.canonical, z), g)
        for level in fam.spectrum(fam.canonical):
            r = solve_targeted(H, level.energy)
            v = r.eigenvector[1:-1]
            formed = np.max(np.abs(numeric._band_product(H.A, v)
                                   - r.eigenvalue * numeric._band_product(H.M, v)))
            formed /= np.max(np.abs(v))
            rounding = eps * (H.norms[0] + abs(r.eigenvalue) * H.norms[1])
            assert abs(r.residual - formed) <= 4 * rounding


def test_targeted_needs_three_interior_nodes():
    H = build_hamiltonian(lambda z: z ** 2, Grid(-1.0, 1.0, 4, LINE))
    with pytest.raises(InvalidParameters):
        solve_targeted(H, 0.0)


def test_dense_rpt_coarse_spectrum():
    line = ShiftedLine(0.3)
    g = Grid(-6.0, 6.0, 201, line)
    H = build_hamiltonian(lambda z: eval_rpt(RPT, z), g)
    # blind: every eigenvalue of the assembled pencil, no target
    evs = eigvals(_dense(H.A), _dense(H.M))
    for E in (-16.0, -4.0, -1.0):
        assert np.min(np.abs(evs - E)) <= 2e-3


def test_residual_of_exact_eigenvector():
    g = Grid(-8.0, 8.0, 161, LINE)
    H = build_hamiltonian(lambda z: z ** 2, g)
    lams, vecs = eig(_dense(H.A), _dense(H.M))
    k = np.argmin(np.abs(lams - 1.0))
    assert residual(np.pad(vecs[:, k], 1), lams[k], H) <= 1e-12


@pytest.mark.parametrize("refined", [False, True], ids=["stated", "refined"])
def test_residual_reads_the_end_nodes_only_through_the_peak(refined):
    # the buffer leaves out at least the rows next to the end nodes, so the
    # pencil needs no coupling to them
    grid = Grid(-12.0, 12.0, 601, ShiftedLine(0.3))
    grid = grid.refined() if refined else grid
    H = build_hamiltonian(lambda z: eval_rpt(RPT, z), grid)
    level = rpt_spectrum(RPT)[0]
    psi = rpt_wavefunction(RPT, level, grid.contour.point(grid.points()))
    peak = np.max(np.abs(psi))
    moved = psi.copy()
    moved[0], moved[-1] = 0.9j * peak, -0.5 * peak
    assert np.max(np.abs(moved)) == peak
    assert residual(moved, level.energy, H) == residual(psi, level.energy, H) > 0


def test_residual_without_a_core_node_is_a_typed_error():
    g = Grid(-1.0, 1.0, 4, LINE)  # two interior nodes, both buffered out
    H = build_hamiltonian(lambda z: np.zeros_like(z), g)
    with pytest.raises(InvalidParameters):
        residual(np.ones(4), 0.0, H)


def test_a_residual_that_overflows_is_a_typed_error_without_a_warning():
    # the band products overflow for a psi near the float maximum
    grid = Grid(-12.0, 12.0, 601, ShiftedLine(0.3))
    H = build_hamiltonian(lambda z: eval_rpt(RPT, z), grid)
    level = rpt_spectrum(RPT)[0]
    psi = rpt_wavefunction(RPT, level, grid.contour.point(grid.points()))
    psi *= 1e308 / np.max(np.abs(psi))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameters, match="the residual is not finite"):
            residual(psi, level.energy, H)


def test_residual_needs_a_sample_on_the_full_grid():
    g = Grid(-1.0, 1.0, 11, LINE)
    H = build_hamiltonian(lambda z: np.zeros_like(z), g)
    for n in (9, 10, 12):
        with pytest.raises(ValueError, match="psi must be sampled on the full grid"):
            residual(np.ones(n), 0.0, H)


def test_verify_family_too_few_nodes_gives_failed_entries():
    rep = verify_family(HulthenParams(2.0, 2.0), Grid(-1.0, 1.0, 3))
    assert not rep.passed
    assert [e.diagnostic for e in rep.entries] == [InvalidParameters]


def test_residual_second_order_ratio():
    level = rpt_spectrum(RPT)[0]
    vals = []
    for n in (2401, 4801):
        H, g, line = _ham(RPT, 0.3, -12, 12, n)
        psi = rpt_wavefunction(RPT, level, line.point(g.points()))
        vals.append(residual(psi, level.energy, H))
    assert vals[1] <= 1e-2
    assert 14.0 <= vals[0] / vals[1] <= 18.0  # h^4


def test_residual_arbitrates_jacobi_convention(printed_eckart_wavefunction):
    level = eckart_spectrum(ECK)[1]
    out = {}
    for conv, wave in (("reduction", eckart_wavefunction),
                       ("printed", printed_eckart_wavefunction)):
        pair = []
        for n in (3601, 7201):
            H, g, line = _ham(ECK, 0.5, -18, 18, n)
            psi = wave(ECK, level, line.point(g.points()))
            pair.append(residual(psi, level.energy, H))
        out[conv] = pair
    assert out["reduction"][1] <= 1e-2
    assert 14.0 <= out["reduction"][0] / out["reduction"][1] <= 18.0  # h^4
    # the printed parameters do not solve the equation at all
    assert out["printed"][0] > 0.5
    assert out["printed"][1] > 0.5


def test_verify_family_eckart():
    rep = verify_family(ECK)
    assert rep.passed
    assert len(rep.entries) == 2
    for e in rep.entries:
        assert e.abs_err <= 1e-5
        assert abs(e.eigenvalue.imag) <= 1e-7
        assert 3.8 <= e.order <= 4.2


def test_verify_family_rpt():
    rep = verify_family(RPT)
    assert rep.passed
    assert len(rep.entries) == 3
    assert all(e.abs_err <= 1e-6 for e in rep.entries)
    assert rep.pt_defect <= 1e-12


def test_verify_family_hulthen_transformed_equation():
    rep = verify_family(HulthenParams(2.0, 2.0))
    assert rep.passed
    e = rep.entries[0]
    assert e.abs_err <= 1e-9  # Richardson-extrapolated like every family
    assert e.residual <= 1e-4
    assert 3.8 <= e.order <= 4.2


@pytest.mark.parametrize("name", list(FAMILIES))
def test_canonical_levels_settle_in_a_few_sweeps(name):
    fam = FAMILIES[name]
    rep = verify_family(fam.canonical)
    # two sweeps for the refined solve from the analytic unknown, the one
    # solve of a level: the stated grid's eigenvalue is a two-sided quotient;
    # the absolute stop took up to 22 for Hulthen, and a seeded random start
    # 3 on the refined grid
    assert [e.iterations for e in rep.entries] == [2] * len(rep.entries)


def test_verify_family_reports_failure_honestly():
    rep = verify_family(ECK, tol_energy=1e-12)
    assert not rep.passed
    assert all(not e.converged for e in rep.entries)


def test_verify_family_refuses_an_unknown_parameter_record():
    with pytest.raises(TypeError, match="^unknown parameter record object$"):
        verify_family(object())


def _entry_values(report):
    return [dataclasses.astuple(e) for e in report.entries]


def test_verify_family_grid_without_contour_gets_the_canonical_one():
    window = FAMILIES["eckart"].grid
    rep = verify_family(ECK, Grid(*window))
    assert rep.grid.contour == ShiftedLine(ECK.epsilon)
    assert _entry_values(rep) == _entry_values(
        verify_family(ECK, Grid(*window, ShiftedLine(ECK.epsilon))))


def test_verify_family_runs_on_the_grid_contour():
    window = FAMILIES["eckart"].grid
    rep = verify_family(ECK, Grid(*window, ShiftedLine(0.6)))
    assert _entry_values(rep) == _entry_values(
        verify_family(EckartParams(3.0, 1.0, 0.6), Grid(*window)))


def _window(params):
    """The uniform window of the family of `params`."""
    return Grid(*next(f for f in FAMILIES.values() if isinstance(params, type(f.canonical))).grid)


def _window_entries(params):
    """The entries, by label, of `params` verified on its family's window."""
    return {e.label: e for e in verify_family(params, _window(params)).entries}


def test_unresolved_levels_on_a_given_grid_are_resolution_limits():
    # 201 points on the rpt window do not resolve the (-,-) levels: halving
    # the step moves their eigenvalues and residuals across the tolerances
    rep = verify_family(RPT, Grid(-12.0, 12.0, 201))
    by_label = {e.label: e for e in rep.entries}
    passing = by_label["(-,+,0)"]
    assert passing.converged and not passing.note and passing.diagnostic is None
    for label in ("(-,-,0)", "(-,-,1)"):
        e = by_label[label]
        assert not e.converged and e.diagnostic is ResolutionLimit
        assert e.note.startswith("ResolutionLimit: halving the step moves the eigenvalue by")
    # the same window at 301 points resolves every level
    assert verify_family(RPT, Grid(-12.0, 12.0, 301)).passed
    # on the uniform windows: a level decaying to tol_energy only at
    # |x| ~ 1.3e4 fails for want of range
    limited = _window_entries(PoschlTellerParams(
        2.7617743021985426, 4.239287339043924, 0.8528042018753568))["(-,-,3)"]
    assert not limited.converged and limited.diagnostic is ResolutionLimit
    assert limited.note.startswith("ResolutionLimit: needs |x| up to 1.3e+04, the grid reaches 12")
    # these Hulthen residuals miss tol_residual but still fall at Numerov's order
    by_label = _window_entries(HulthenParams(1.6057852664796821, -11.626819040907229))
    for label in ("(-,-,1)", "(+,-,0)"):
        e = by_label[label]
        assert not e.converged and e.diagnostic is ResolutionLimit
        assert e.residual > FAMILIES["hulthen"].tol_residual and 3.5 <= e.order <= 4.5
        assert e.note.startswith(f"ResolutionLimit: the residual {e.residual:.3g} falls at order")
    # canonical (-,+,0) decays to tol_energy at |x| = 13.8, past the window's
    # 12, yet meets every tolerance: a reason types a failure, never fails a pass
    passing = _window_entries(RPT)["(-,+,0)"]
    assert passing.converged and passing.diagnostic is None and not passing.note


class _RealLine:
    """The real line as a path, xi = x, with the identity jet (x, 1, 0, 0)."""

    @staticmethod
    def jet(x):
        xi = np.asarray(x, dtype=complex)
        return xi, np.ones_like(xi), np.zeros_like(xi), np.zeros_like(xi)


@pytest.mark.parametrize("contour", [_RealLine(), ShiftedLine(0.5)],
                         ids=["real_line", "shifted_line"])
def test_laplacian_stencil_row(contour):
    g = Grid(-0.5, 0.5, 11, contour)  # h = 0.1
    H = build_hamiltonian(lambda z: np.zeros_like(z), g)
    a_diag, a_lower, a_upper = H.A
    mid = 4
    # V = 0, xi' = 1: the pencil's A is the flat stencil tridiag(-1, 2, -1)/h^2 exactly;
    # row mid holds lower[mid - 1], diag[mid] and upper[mid]
    assert a_lower[mid - 1] == a_upper[mid] == -1.0 / g.h ** 2 == pytest.approx(-100.0)
    assert a_diag[mid] == 2.0 / g.h ** 2 == pytest.approx(200.0)
    assert np.array_equal(a_lower, a_upper)


def test_numerov_stencil_row():
    g = Grid(-0.5, 0.5, 11, ShiftedLine(0.5))  # h = 0.1
    H = build_hamiltonian(lambda z: np.zeros_like(z), g)
    a_diag, a_lower, a_upper = H.A
    m_diag, m_lower, m_upper = H.M
    mid = 4
    # V = 0, xi' = 1: A = L = tridiag(-1, 2, -1)/h^2 and M = B = tridiag(1, 10, 1)/12
    assert a_lower[mid - 1] == a_upper[mid] == -1.0 / g.h ** 2 == pytest.approx(-100.0)
    assert a_diag[mid] == 2.0 / g.h ** 2
    assert m_lower[mid - 1] == m_upper[mid] == 1 / 12
    assert m_diag[mid] == 10 / 12


def test_numerov_pencil_carries_the_potential_on_the_neighbours():
    line = ShiftedLine(0.3)
    g = Grid(-12.0, 12.0, 41, line)
    H = build_hamiltonian(lambda z: eval_rpt(RPT, z), g)
    V = eval_rpt(RPT, line.point(g.points()))
    n = g.n_points
    L = (2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / g.h ** 2
    B = (10 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)) / 12
    A = L + B @ np.diag(V)
    a_diag, a_lower, a_upper = H.A
    assert np.allclose(a_diag, np.diag(A)[1:-1], rtol=1e-14, atol=0)
    assert np.allclose(a_lower, np.diag(A, -1)[1:-1], rtol=1e-14, atol=0)
    assert np.allclose(a_upper, np.diag(A, 1)[1:-1], rtol=1e-14, atol=0)


@pytest.mark.parametrize("contour", [
    ArchContour(math.pi / 6), ShiftedLine(0.5),
    Stretched(ArchContour(math.pi / 6), 0.7), Stretched(ShiftedLine(0.5), 2.0),
], ids=["arch", "shifted_line", "stretched_arch", "stretched_line"])
def test_contour_jets_match_finite_differences(contour, check_jet):
    x = np.linspace(-4.0, 4.0, 33)
    jet = check_jet(contour.jet, x)
    assert np.array_equal(jet[0], contour.point(x))


def test_numerov_eigenvalues_converge_at_fourth_order():
    line = ShiftedLine(RPT.epsilon)
    errors = []
    for n in (501, 1001):
        H = build_hamiltonian(lambda z: eval_rpt(RPT, z), Grid(-12.0, 12.0, n, line))
        errors.append([abs(solve_targeted(H, l.energy).eigenvalue - l.energy)
                       for l in rpt_spectrum(RPT)])
    assert len(errors[0]) == 3
    for coarse, fine in zip(*errors):
        assert 14.0 <= coarse / fine <= 18.0


def test_verify_family_rejects_the_printed_eckart_convention(monkeypatch,
                                                            printed_eckart_wavefunction):
    monkeypatch.setattr(spectra, "eckart_wavefunction", printed_eckart_wavefunction)
    for rep in (verify_family(ECK), verify_family(ECK, _window(ECK))):
        assert not rep.passed
        # degree-0 polynomials cannot distinguish the conventions; N = 1 can
        (e,) = [e for e in rep.entries if e.N == 1]
        assert e.abs_err <= 1e-5  # the energy is right; the residual catches the function
        assert e.residual > 0.5 and e.residual_fine > 0.5
        assert not e.converged
        # a wrong closed form is a plain failure, never a ResolutionLimit,
        # on the rule grid and the window alike
        assert all(f.diagnostic is None for f in rep.entries if not f.converged)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_verify_family_rejects_energies_moved_by_ten_tolerances(monkeypatch, name):
    fam = FAMILIES[name]
    attr = f"{name}_spectrum"
    levels = getattr(spectra, attr)
    monkeypatch.setattr(spectra, attr, lambda p: [
        dataclasses.replace(l, energy=l.energy + 10 * fam.tol_energy) for l in levels(p)])
    for grid in (None, _window(fam.canonical)):
        rep = verify_family(fam.canonical, grid)
        assert rep.entries and not rep.passed
        assert not any(e.converged for e in rep.entries)
        # a wrong closed form is a plain failure, never a ResolutionLimit,
        # on the rule grid and the window alike
        assert all(e.diagnostic is None for e in rep.entries)


def test_verify_family_rejects_tau_swapped_rpt_labels(monkeypatch):
    levels = spectra.rpt_spectrum
    monkeypatch.setattr(spectra, "rpt_spectrum", lambda p: [
        dataclasses.replace(l, qn=dataclasses.replace(l.qn, tau=-l.qn.tau)) for l in levels(p)])
    # on the window, which ends at 12, the level relabelled from (-,+,0)
    # decays to tol_energy only at 13.8, but the ends move no eigenvalue by
    # tol_energy
    for rep in (verify_family(RPT), verify_family(RPT, _window(RPT))):
        assert len(rep.entries) == 3 and not rep.passed
        for e in rep.entries:
            assert e.abs_err <= 1e-6  # the energies are right; the residual catches the labels
            assert e.residual > 1.0
            assert not e.converged
            # a wrong closed form is a plain failure, never a ResolutionLimit
            assert e.diagnostic is None


@pytest.mark.parametrize("tols", [
    {"tol_energy": math.nan}, {"tol_energy": math.inf}, {"tol_energy": 0.0},
    {"tol_residual": -1.0}, {"tol_residual": math.nan},
], ids=["energy_nan", "energy_inf", "energy_zero", "residual_negative", "residual_nan"])
def test_verify_family_rejects_bad_tolerances(tols):
    with pytest.raises(InvalidParameters, match="tolerances must be finite and > 0"):
        verify_family(ECK, **tols)


# Canonical |dE| of the second-order verifier this one replaced (three-point
# stencil, Richardson at second order, 4001/3001/12001-point default grids).
# A change that shrinks the grids or lowers the extrapolation order must not
# give back accuracy unnoticed.
_CANONICAL_ABS_ERR = {
    "eckart": {"(+,+,0)": 7.6e-11, "(+,+,1)": 2.6e-10},
    "rpt": {"(-,-,0)": 2.6e-9, "(-,-,1)": 1.0e-8, "(-,+,0)": 1.5e-9},
    "hulthen": {"(-,-,0)": 2.4e-12},
}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_canonical_accuracy_no_worse_than_the_second_order_verifier(name):
    rep = verify_family(FAMILIES[name].canonical)
    assert rep.passed
    bounds = _CANONICAL_ABS_ERR[name]
    assert [e.label for e in rep.entries] == list(bounds)
    for e in rep.entries:
        assert e.abs_err <= bounds[e.label]


def test_step_limits_equal_the_per_level_loop():
    # the same element-wise arithmetic as one level at a time, so equal
    # bit for bit, across a block boundary of the level axis
    rng = np.random.default_rng(7)
    levels, probes = 2 * numeric._LEVEL_BLOCK + 5, 200
    x = np.sort(rng.uniform(0.0, 30.0, probes))
    w = (30.0 * numeric._STRETCHES[:, None]) ** 2 + x ** 2
    k2 = rng.uniform(1e-3, 1e3, (levels, probes))
    envelope = np.exp(-rng.uniform(0.0, 5.0, (levels, 1)) * x)
    ranges = rng.uniform(1.0, 40.0, levels)
    tol = 1e-4
    loop = [np.min(np.where(x <= L, np.minimum(
                numeric._STEP_THETA / np.sqrt(k * w),
                (240 * tol / (numeric._RESIDUAL_SAFETY * e * k ** 3)) ** 0.25 / w ** 0.75),
                np.inf), axis=1)
            for k, e, L in zip(k2, envelope, ranges)]
    assert np.array_equal(numeric._step_limits(k2, envelope, ranges, x, w, tol), np.array(loop))


def test_subnormal_residual_tolerance_is_a_resolution_limit_without_a_warning():
    # no step meets tol_residual = 1e-320: every step bound underflows to 0,
    # the rule grid takes its point cap, and the residuals fall at order 4
    # towards a rounding floor far above the tolerance
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = verify_family(ECK, tol_residual=1e-320)
    assert rep.grid.n_points == numeric._VERIFY_POINTS and not rep.passed
    assert rep.entries
    for e in rep.entries:
        assert e.diagnostic is ResolutionLimit and 3.5 <= e.order <= 4.5
        assert e.note.startswith("ResolutionLimit: the residual")
        assert "; the tolerance is below its rounding floor" in e.note


@pytest.mark.parametrize("eps", [1e-54, 1e-100])
def test_a_near_zero_arch_angle_is_typed_without_a_warning(eps):
    # the probe's k2 reaches about 1e200 at the apex, so k2^3 overflows in
    # the step bound (its limit, a step of 0, is taken), and the arch map's
    # r' vanishes at the apex, so the wave-function sample raises before
    # any solve
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = verify_family(HulthenParams(2.0, 2.0, eps))
    (e,) = rep.entries
    assert not rep.passed and e.diagnostic is SingularPoint and e.iterations == 0
    assert e.note == f"SingularPoint: r' vanishes: |r'| = {eps:.3e} below 1.0e-10"


def test_a_level_whose_sample_or_residual_overflows_is_typed_without_a_warning():
    # deep Hulthen levels: some wave functions divided by sqrt(xi') overflow,
    # and some finite ones reach a residual that does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = verify_family(HulthenParams(20.0, -2e5))
    failing = [e for e in rep.entries if not e.converged]
    assert failing and all(e.diagnostic is not None for e in failing)
    invalid = [e.note for e in failing if e.diagnostic is InvalidParameters]
    assert any(n.startswith("InvalidParameters: the wave function is not finite at x = ")
               for n in invalid)
    assert any(n.startswith("InvalidParameters: the residual is not finite") for n in invalid)


def test_an_arch_map_below_the_one_metric_floor_fails_its_level():
    # tan(eps) ~ 1e-11 is below the 1e-10 floor that the pencil shares with
    # `arch_map`'s own guard: the map's r' vanishes at the apex, so the
    # wave-function sample raises before any solve
    rep = verify_family(HulthenParams(2.0, 2.0, 1e-11))
    (e,) = rep.entries
    assert not rep.passed and e.diagnostic is SingularPoint and e.iterations == 0
    assert e.note == "SingularPoint: r' vanishes: |r'| = 1.000e-11 below 1.0e-10"


def test_the_probe_checks_the_metric_before_the_potential():
    # |xi'| at the apex is cot(eps) ~ 1e-12, below the pencil's metric floor,
    # where the Hulthen potential itself is singular
    fam = FAMILIES["hulthen"]
    params = HulthenParams(2.0, 2.0, math.pi / 2 - 1e-12)
    levels = fam.spectrum(params)
    kappa = np.array([l.aux["kappa"] for l in levels])
    ranges = math.log(1 / fam.tol_energy) / kappa
    with pytest.raises(SingularPoint, match="^xi' vanishes: .* below 1.0e-10$"):
        numeric._rule_grid(fam, params, levels, kappa, ranges, fam.tol_residual)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_the_pencil_samples_are_the_normal_form_of_the_jet(name):
    # W and Q have one home, contour.normal_form, whose W = xi'^2 the pencil's
    # M reads: the stored samples are its output bit for bit
    fam = FAMILIES[name]
    grid = verify_family(fam.canonical).grid
    H = build_hamiltonian(lambda xi: fam.potential(fam.canonical, xi), grid)
    jet = grid.contour.jet(grid.points())
    W, Q = contour.normal_form(jet, fam.potential(fam.canonical, jet[0]))
    for ours, direct in zip(H.samples, (jet[0], jet[1], W, Q)):
        assert np.array_equal(ours, direct)
    assert np.array_equal(H.M[0], 10.0 / 12.0 * W[1:-1])


@pytest.mark.parametrize("tol_residual, reason", [
    (1e-10, "it needs a step of about"),
    (1e-12, "the tolerance is below its rounding floor"),
])
def test_a_residual_still_falling_on_the_point_cap_is_a_resolution_limit(tol_residual, reason):
    # canonical Hulthen meets tol_energy, and its residual 5.9e-10 falls at
    # order 2 on the 1001-point cap the tighter tolerance sizes
    (e,) = verify_family(HulthenParams(2.0, 2.0), tol_residual=tol_residual).entries
    assert e.abs_err <= FAMILIES["hulthen"].tol_energy and e.residual > tol_residual
    assert 1.0 <= e.order < 3.5
    assert not e.converged and e.diagnostic is ResolutionLimit
    assert f"; {reason}" in e.note


@pytest.mark.parametrize("eps, points", [(1.2e-10, "4.47e+12"), (3e-10, "1.13e+12")])
def test_a_level_past_the_cap_of_its_own_rule_grid_is_a_resolution_limit(eps, points):
    # an arch just above the metric floor: the level's own rule grid needs
    # about 1e12 points, the grid stops at the 1001-point cap, and there the
    # level meets tol_energy but not tol_residual, at an order that no other
    # reason reads
    (e,) = verify_family(HulthenParams(2.0, 2.0, eps)).entries
    assert e.abs_err <= FAMILIES["hulthen"].tol_energy
    assert e.residual > FAMILIES["hulthen"].tol_residual and e.order <= 0
    assert not e.converged and e.diagnostic is ResolutionLimit
    assert e.note == (f"ResolutionLimit: its rule grid needs {points} points, "
                      f"past the cap of 1001; the grid has 1001")


def test_level_record_defaults_are_the_failure_values():
    record = numeric.LevelRecord("(-,-,0)", 0, -1, -1, -2.0)
    values = dataclasses.astuple(record)[5:]
    assert repr(values) == repr((complex("nan+nanj"), math.inf, math.inf, math.inf,
                                 math.inf, math.nan, 0, False, "", None))
    assert [f.name for f in dataclasses.fields(record)][-1] == "diagnostic"


@pytest.mark.parametrize("tolerance", [{"tol_energy": 0.5}, {"tol_energy": 1.0},
                                       {"tol_energy": 2.0}, {"tol_residual": 1e300}],
                         ids=["energy_0.5", "energy_1", "energy_2", "residual_1e300"])
@pytest.mark.parametrize("name", list(FAMILIES))
def test_a_looser_tolerance_verifies_on_the_default_rule_grid(name, tolerance):
    # the rule grid is sized for the tighter of each tolerance and the
    # family default, so loosening a bound never coarsens the grid
    fam = FAMILIES[name]
    rep = verify_family(fam.canonical, **tolerance)
    assert rep.grid == verify_family(fam.canonical).grid
    assert rep.passed
    assert all(e.diagnostic is None and not e.note for e in rep.entries)


def test_rule_grids_are_stretched_and_small_on_the_canonical_setups():
    for fam in FAMILIES.values():
        rep = verify_family(fam.canonical)
        assert isinstance(rep.grid.contour, Stretched)
        assert rep.grid.contour.contour == fam.contour(fam.canonical)
        assert -rep.grid.x_min == rep.grid.x_max
        assert rep.grid.n_points <= 401
        assert not any(e.note for e in rep.entries)
        assert all(e.diagnostic is None for e in rep.entries)


def test_slowly_decaying_level_is_a_resolution_limit():
    # E = -(2N+1 - alpha - beta)^2 ~ -1e-6 at N = 3: kappa ~ 1e-3 needs a
    # range of |x| ~ 1.4e4, far beyond where the degree-3 far field is finite
    params = PoschlTellerParams(2.7617743021985426, 4.239287339043924, 0.8528042018753568)
    rep = verify_family(params)
    by_label = {e.label: e for e in rep.entries}
    limited = by_label["(-,-,3)"]
    assert -1e-5 < limited.E_analytic < 0
    assert not limited.converged and not rep.passed
    assert limited.diagnostic is ResolutionLimit
    assert limited.note.startswith("ResolutionLimit: needs |x| up to")
    assert all(e.converged for label, e in by_label.items() if label != "(-,-,3)")


_DRAW_BOXES = {"eckart": ((1.5, 6.0), (0.0, 3.0), (0.2, 1.2)),
               "rpt": ((0.3, 8.0), (0.3, 8.0), (0.2, 1.2)),
               "hulthen": ((0.3, 6.0), (-12.0, 12.0))}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_random_admissible_draws_pass_or_are_typed(name):
    fam = FAMILIES[name]
    rng = np.random.default_rng(2024)
    entries = []
    for _ in range(30):
        params = type(fam.canonical)(*(rng.uniform(lo, hi) for lo, hi in _DRAW_BOXES[name]))
        for grid in (None, Grid(*fam.grid, fam.contour(params))):
            rep = verify_family(params, grid)
            assert rep.passed == all(e.converged for e in rep.entries)
            entries += rep.entries
    assert entries
    for e in entries:
        # on the rule grid and the uniform window alike, a failure is always
        # typed, and a pass never is
        assert e.converged or e.diagnostic is not None, (name, e)
        assert not e.converged or e.diagnostic is None, (name, e)
        if not (math.isfinite(e.residual) and math.isfinite(e.abs_err)):
            assert e.diagnostic is not None, (name, e)
        if e.converged:
            assert e.abs_err <= fam.tol_energy and e.residual <= fam.tol_residual
