import dataclasses
import math

import numpy as np
import pytest

from ptspectra import (
    DiscretizedHamiltonian,
    EckartParams,
    Grid,
    HulthenParams,
    InvalidParameters,
    MetricVanishing,
    NoConvergence,
    PoschlTellerParams,
    ShiftedLine,
    SizeGuard,
    build_hamiltonian,
    eckart_spectrum,
    eckart_wavefunction,
    eval_eckart,
    eval_rpt,
    pt_norm,
    residual,
    rpt_spectrum,
    rpt_wavefunction,
    solve_dense,
    solve_targeted,
    verify_family,
)

ECK = EckartParams(3.0, 1.0, 0.5)
RPT = PoschlTellerParams(3.5, 1.5, 0.3)


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


@pytest.mark.parametrize("grid", [
    (-1.0, 1.0, 5), (-18.0, 18.0, 4001), (-12.0, 12.0, 3001), (-12.0, 12.0, 12001),
    (-0.3, 1.7, 7), (-5.0, 3.0, 1001), (0.1, 0.7, 3), (-math.pi, math.e, 777),
])
def test_refined_even_nodes_are_the_grid_bitwise(grid):
    g = Grid(*grid)
    assert np.array_equal(g.refined().points()[::2], g.points())


@pytest.mark.parametrize("contour", [None, ShiftedLine(0.5)], ids=["real_line", "shifted_line"])
def test_laplacian_stencil_row(contour):
    g = Grid(-0.5, 0.5, 11, contour)  # h = 0.1
    H = build_hamiltonian(lambda z: np.zeros_like(z), g)
    A = H.to_dense()
    mid = 4
    # xi' = 1: the midpoint metric form gives the flat stencil's entries exactly
    assert A[mid, mid - 1] == A[mid, mid + 1] == -1.0 / g.h ** 2 == pytest.approx(-100.0)
    assert A[mid, mid] == 2.0 / g.h ** 2 == pytest.approx(200.0)
    assert H.bc_left == H.bc_right == -1.0 / g.h ** 2


def test_harmonic_ground_state():
    g = Grid(-10.0, 10.0, 2001, None)
    H = build_hamiltonian(lambda z: z ** 2, g)
    r = solve_targeted(H, 1.0)
    assert abs(r.eigenvalue - 1.0) <= 1e-4


def test_complex_symmetric_discretization():
    H, _, _ = _ham(RPT, 0.3, -12, 12, 301)
    A = H.to_dense()
    assert np.max(np.abs(A - A.T)) == 0.0


def test_metric_vanishing_guard():
    class _Pinched:
        def point(self, x):
            return np.asarray(x, dtype=complex)

        def derivative(self, x):
            return np.full(np.shape(x), 1e-12, dtype=complex)

    g = Grid(-1.0, 1.0, 11, _Pinched())
    with pytest.raises(MetricVanishing):
        build_hamiltonian(lambda z: np.zeros_like(z), g)


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


def test_targeted_shift_on_exact_eigenvalue():
    g = Grid(-4.0, 4.0, 41, None)
    H = build_hamiltonian(lambda z: z ** 2, g)
    lam = solve_dense(H)[0].eigenvalue
    r = solve_targeted(H, lam)
    assert abs(r.eigenvalue - lam) <= 1e-8


def test_dense_diagonal_and_jordan():
    d = np.array([2.0 + 1j, -1.0, 0.5 - 0.5j])
    z = np.zeros(2, dtype=complex)
    g = Grid(-1.0, 1.0, 5, None)
    H = DiscretizedHamiltonian(d, z, z.copy(), 0j, 0j, g)
    lams = sorted((r.eigenvalue for r in solve_dense(H)), key=lambda w: w.real)
    assert np.allclose(lams, sorted(d, key=lambda w: w.real))

    jd = np.array([0.7 + 0.1j, 0.7 + 0.1j])
    H2 = DiscretizedHamiltonian(jd, np.zeros(1, dtype=complex),
                                np.ones(1, dtype=complex), 0j, 0j,
                                Grid(-1.0, 1.0, 4, None))
    for r in solve_dense(H2):
        assert abs(r.eigenvalue - (0.7 + 0.1j)) <= 1e-6


def test_dense_size_guard():
    g = Grid(-12.0, 12.0, 1500, None)
    H = build_hamiltonian(lambda z: np.zeros_like(z), g)
    with pytest.raises(SizeGuard):
        solve_dense(H)


def test_dense_rpt_coarse_spectrum():
    line = ShiftedLine(0.3)
    g = Grid(-6.0, 6.0, 801, line)
    H = build_hamiltonian(lambda z: eval_rpt(RPT, z), g)
    evs = np.array([r.eigenvalue for r in solve_dense(H)])
    for E in (-16.0, -4.0, -1.0):
        assert np.min(np.abs(evs - E)) <= 2e-3


def test_residual_of_exact_eigenvector():
    g = Grid(-8.0, 8.0, 161, None)
    H = build_hamiltonian(lambda z: z ** 2, g)
    ground = min(solve_dense(H), key=lambda r: abs(r.eigenvalue - 1.0))
    assert residual(ground.eigenvector, ground.eigenvalue, H) <= 1e-12


def test_residual_without_a_core_node_is_a_typed_error():
    g = Grid(-1.0, 1.0, 4, None)  # two interior nodes, both buffered out
    H = build_hamiltonian(lambda z: np.zeros_like(z), g)
    with pytest.raises(InvalidParameters):
        residual(np.ones(4), 0.0, H)


def test_verify_family_too_few_nodes_gives_failed_entries():
    rep = verify_family(HulthenParams(2.0, 2.0), Grid(-1.0, 1.0, 3))
    assert not rep.passed
    assert [e.note.split(":")[0] for e in rep.entries] == ["InvalidParameters"]


def test_residual_second_order_ratio():
    level = rpt_spectrum(RPT)[0]
    vals = []
    for n in (2401, 4801):
        H, g, line = _ham(RPT, 0.3, -12, 12, n)
        psi = rpt_wavefunction(RPT, level, line.point(g.points()))
        vals.append(residual(psi, level.energy, H))
    assert vals[1] <= 1e-2
    assert 3.5 <= vals[0] / vals[1] <= 4.5


def test_residual_arbitrates_jacobi_convention():
    level = eckart_spectrum(ECK)[1]
    out = {}
    for conv in ("reduction", "printed"):
        pair = []
        for n in (3601, 7201):
            H, g, line = _ham(ECK, 0.5, -18, 18, n)
            psi = eckart_wavefunction(ECK, level, line.point(g.points()), convention=conv)
            pair.append(residual(psi, level.energy, H))
        out[conv] = pair
    assert out["reduction"][1] <= 1e-2
    assert 3.5 <= out["reduction"][0] / out["reduction"][1] <= 4.5
    # the printed parameters do not solve the equation at all
    assert out["printed"][0] > 0.5
    assert out["printed"][1] > 0.5


def test_pt_norm_trivial_and_gaussian():
    g = Grid(-10.0, 10.0, 501, None)
    zero, conv = pt_norm(np.zeros(501, dtype=complex), g)
    assert zero == 0 and conv == 0
    psi = np.exp(-g.points() ** 2 / 2).astype(complex)
    bil, conv = pt_norm(psi, g)
    assert bil.real > 0 and abs(bil.imag) <= 1e-14
    assert bil == pytest.approx(conv, rel=1e-12)


def test_pt_norm_eckart_tail():
    line = ShiftedLine(0.5)
    g = Grid(-18.0, 18.0, 4001, line)
    level = eckart_spectrum(ECK)[0]
    x = g.points()
    psi = eckart_wavefunction(ECK, level, line.point(x))
    _, conv = pt_norm(psi, g)
    mask = np.abs(x) > 0.8 * 18
    tail = np.trapezoid(np.abs(psi[mask]) ** 2, x[mask])
    assert tail / conv <= 1e-6


def test_verify_family_eckart():
    rep = verify_family(ECK)
    assert rep.passed
    assert len(rep.entries) == 2
    for e in rep.entries:
        assert e.abs_err <= 1e-5
        assert abs(e.eigenvalue.imag) <= 1e-7
        assert 1.8 <= e.order <= 2.2
    assert len(rep.convergence_table) == 2


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
    assert e.abs_err <= 1e-4
    assert e.residual <= 1e-4
    assert 1.8 <= e.order <= 2.2


def test_verify_family_reports_failure_honestly():
    rep = verify_family(ECK, tol_energy=1e-12)
    assert not rep.passed
    assert all(not e.converged for e in rep.entries)


def _entry_values(report):
    return [dataclasses.astuple(e) for e in report.entries]


def test_verify_family_grid_without_contour_gets_the_canonical_one():
    rep = verify_family(ECK, Grid(-18.0, 18.0, 4001))
    assert rep.grid.contour == ShiftedLine(ECK.epsilon)
    assert _entry_values(rep) == _entry_values(verify_family(ECK))


def test_verify_family_runs_on_the_grid_contour():
    rep = verify_family(ECK, Grid(-18.0, 18.0, 4001, ShiftedLine(0.6)))
    assert _entry_values(rep) == _entry_values(verify_family(EckartParams(3.0, 1.0, 0.6)))
