import math

import numpy as np
import pytest

from ptspectra import (
    ArchContour,
    BoundaryLevelWarning,
    DegenerateSWarning,
    EckartParams,
    HulthenParams,
    InvalidParameters,
    OutOfRange,
    PoschlTellerParams,
    SampledPath,
    ShiftedLine,
    SingularPoint,
    continuous_log,
    eckart_spacing,
    eckart_spectrum,
    eckart_wavefunction,
    hulthen_spectrum,
    hulthen_wavefunction,
    power_along_path,
    rpt_real_energy_condition,
    rpt_spectrum,
    rpt_wavefunction,
    verify_family,
)
from ptspectra.numeric import FAMILIES
from ptspectra.spectra import _parent_eigenfunction


def _power(base, exponent):
    """base^exponent, continued along the samples of `base`."""
    return power_along_path((continuous_log(base),), (exponent,))


def test_eckart_spectrum_examples():
    assert [l.energy for l in eckart_spectrum(EckartParams(3.0, 1.0))] == [-3.75, 0.0]
    assert [l.energy for l in eckart_spectrum(EckartParams(3.0, 0.0))] == [-4.0, -1.0]
    assert eckart_spectrum(EckartParams(1.0, 5.0)) == []
    single = eckart_spectrum(EckartParams(1.5, 0.1))
    assert len(single) == 1
    assert single[0].energy == pytest.approx(-0.21)


def test_eckart_aux_parameters():
    rng = np.random.default_rng(21)
    for _ in range(60):
        A = rng.uniform(1.2, 9.0)
        beta = rng.uniform(-4.0, 4.0)
        for level in eckart_spectrum(EckartParams(A, beta)):
            u, v = level.aux["u"], level.aux["v"]
            D = A - level.qn.N - 1
            assert u + v == pytest.approx(D, abs=1e-12)
            assert (u + v) * (u - v) == pytest.approx(-1j * beta, abs=1e-13)
            # energy from the (u, v) route; rel term covers the blow-up of
            # beta^2/D^2 on near-boundary D where 1e-12 absolute is sub-ulp
            assert level.energy == pytest.approx(-2 * (u ** 2 + v ** 2), rel=1e-12, abs=1e-12)


def test_eckart_boundary_level_warning():
    # the N=1 slot lands within round-off of u+v = 0 and must go loudly
    with pytest.warns(BoundaryLevelWarning):
        levels = eckart_spectrum(EckartParams(2.0 + 1e-13, 1.0))
    assert [l.qn.N for l in levels] == [0]
    # exactly at the boundary there is nothing to report, just exclusion
    assert [l.qn.N for l in eckart_spectrum(EckartParams(2.0, 1.0))] == [0]


def test_eckart_ground_wavefunction_shape():
    p = EckartParams(3.0, 1.0, 0.5)
    level = eckart_spectrum(p)[0]
    line = ShiftedLine(0.5)
    x = np.linspace(-4, 4, 201)
    r = line.point(x)
    psi = eckart_wavefunction(p, level, r)
    u, v = level.aux["u"], level.aux["v"]
    y = np.cosh(r) / np.sinh(r)
    direct = _power(y - 1, u) * _power(y + 1, v)
    # N=0: polynomial factor is 1, so the profiles agree up to nothing at all
    assert np.max(np.abs(psi - direct)) <= 1e-10 * np.max(np.abs(direct))


@pytest.mark.parametrize("name", list(FAMILIES))
def test_wavefunction_decay_rate(name):
    # every level states the rate at which it decays along its canonical
    # path as aux["kappa"], the rate the verifier sizes its grid from
    fam = FAMILIES[name]
    p = fam.canonical
    x = np.linspace(6.0, 10.0, 41)
    path = SampledPath(fam.contour(p).point(x))
    for level in fam.spectrum(p):
        a = np.abs(fam.wavefunction(p, level, path))
        ratio = a[-1] / a[0]
        assert ratio == pytest.approx(math.exp(-level.aux["kappa"] * (x[-1] - x[0])), rel=1e-3)


def test_rpt_spectrum_three_levels():
    levels = rpt_spectrum(PoschlTellerParams(3.5, 1.5, 0.3))
    got = {(l.qn.sigma, l.qn.tau, l.qn.N): l.energy for l in levels}
    assert got == {(-1, -1, 0): -16.0, (-1, -1, 1): -4.0, (-1, 1, 0): -1.0}
    assert all(l.aux["kappa"] > 0 for l in levels)
    assert levels[0].qn.label() == "(-,-,0)"


def test_rpt_spectrum_empty_and_quasi_odd():
    assert rpt_spectrum(PoschlTellerParams(0.5, 0.5)) == []
    levels = rpt_spectrum(PoschlTellerParams(1.2, 3.8))
    pm = [l for l in levels if (l.qn.sigma, l.qn.tau) == (1, -1)]
    assert len(pm) == 1
    assert pm[0].energy == pytest.approx(-2.56)


def test_rpt_family_counting_inequalities():
    rng = np.random.default_rng(17)
    for _ in range(200):
        a = rng.uniform(0.05, 6.0)
        b = rng.uniform(0.05, 6.0)
        present = {(l.qn.sigma, l.qn.tau) for l in rpt_spectrum(PoschlTellerParams(a, b))}
        assert ((-1, -1) in present) == (a + b > 1)
        assert ((-1, 1) in present) == (a > b + 1)
        assert ((1, -1) in present) == (b > a + 1)
        assert (1, 1) not in present


def test_rpt_quasi_even_dominance():
    rng = np.random.default_rng(29)
    for _ in range(100):
        a = rng.uniform(0.05, 6.0)
        b = rng.uniform(0.05, 6.0)
        levels = rpt_spectrum(PoschlTellerParams(a, b))
        nmm = sum(1 for l in levels if (l.qn.sigma, l.qn.tau) == (-1, -1))
        nmp = sum(1 for l in levels if (l.qn.sigma, l.qn.tau) == (-1, 1))
        assert nmm >= nmp
        if b >= 1 and nmp > 0:
            assert nmm > nmp


def test_rpt_ground_state_closed_form():
    # quasi-odd family ground state: cosh^{A+1} sinh^{1-B} with
    # A = alpha - 1/2, B = beta + 1/2
    p = PoschlTellerParams(1.2, 3.8, 0.3)
    level = [l for l in rpt_spectrum(p) if (l.qn.sigma, l.qn.tau) == (1, -1)][0]
    line = ShiftedLine(0.3)
    r = line.point(np.linspace(-5, 5, 101))
    psi = rpt_wavefunction(p, level, r)
    A, B = p.alpha - 0.5, p.beta + 0.5
    direct = _power(np.cosh(r), A + 1) * _power(np.sinh(r), 1 - B)
    assert np.max(np.abs(psi - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_rpt_real_energy_condition():
    ok, E = rpt_real_energy_condition(3.5, 1.5, -1, -1, 0)
    assert ok and E == pytest.approx(-16.0)
    ok, E = rpt_real_energy_condition(1 + 0.5j, 1 - 0.5j, 1, 1, 0)
    assert ok
    assert E == pytest.approx(-9.0, abs=1e-12)
    ok, _ = rpt_real_energy_condition(1 + 1j, 1.0, 1, 1, 0)
    assert not ok


def test_hulthen_spectrum_example():
    levels = hulthen_spectrum(HulthenParams(2.0, 2.0))
    assert len(levels) == 1
    l0 = levels[0]
    assert (l0.qn.sigma, l0.qn.N) == (-1, 0)
    assert l0.aux["s"] == pytest.approx(-1.0)
    assert l0.aux["tau_beta"] == pytest.approx(-0.5)
    assert l0.aux["kappa"] == pytest.approx(1.5)
    assert l0.energy == pytest.approx(2.25)
    # the sigma=+1, n=0 slot has kappa = -11/6 and must be absent
    assert all(l.qn.sigma == -1 for l in levels)


def test_hulthen_energy_identities():
    rng = np.random.default_rng(41)
    seen = 0
    while seen < 60:
        a = rng.uniform(0.2, 6.0)
        if min(abs(a - m) for m in (1.0, 3.0, 5.0)) < 0.1:
            # s ~ 0 slots explode kappa; anything below the |s| >= 0.1
            # sanity margin is float noise, not algebra
            continue
        p = HulthenParams(a, rng.uniform(-8.0, 8.0))
        for l in hulthen_spectrum(p):
            s, tb, kap = l.aux["s"], l.aux["tau_beta"], l.aux["kappa"]
            assert abs(l.energy - kap ** 2) <= 1e-12
            assert abs(p.C - s * (s + 2 * tb)) <= 1e-12
            assert l.energy > 0
            seen += 1


@pytest.mark.parametrize("C", [-1e5, -1e8])
def test_hulthen_large_negative_C_enumerates(C):
    # E = C + (s - C/s)^2/4 cancels two terms of size about |C|, so near
    # the threshold (small kappa) it carries a rounding error of about
    # 1e-16 |C|; the closed-form cross-check must allow for that, not
    # report a library bug
    levels = hulthen_spectrum(HulthenParams(2.0, C))
    assert len(levels) == {-1e5: 315, -1e8: 9999}[C]
    for l in levels:
        drift = l.energy - C
        assert abs(l.energy - l.aux["kappa"] ** 2) <= 1e-14 * (abs(C) + drift)
        assert l.energy > 0


def test_hulthen_degenerate_s_slot():
    # alpha = 1 puts sigma=-1, n=0 exactly at s = 0
    with pytest.warns(DegenerateSWarning):
        hulthen_spectrum(HulthenParams(1.0, 3.0))


def test_hulthen_wavefunction_modulus_identity():
    p = HulthenParams(2.0, 2.0)
    level = hulthen_spectrum(p)[0]
    arch = ArchContour(math.pi / 6)
    x = np.linspace(-6, 6, 301)
    psi = hulthen_wavefunction(p, level, arch, x)
    r = x - 1j * math.pi / 6
    tb = level.aux["tau_beta"]
    chi = _power(np.sinh(r), tb + 0.5) * _power(np.cosh(r), level.qn.sigma * p.alpha + 0.5)
    assert np.max(np.abs(np.abs(psi) - np.abs(chi) * np.abs(np.tanh(r)) ** -0.5)) <= 1e-10


@pytest.mark.parametrize("alpha, C, eps", [
    (2.0, 2.0, math.pi / 6), (2.8157, 3.5532, 0.4), (4.4460, -2.1225, 1.2)])
def test_hulthen_wavefunction_complex_value(alpha, C, eps):
    # on the arch r(xi(x)) = x - i eps and 1/sqrt(r') = sqrt(xi'(x)), so psi is the
    # parent eigenfunction on the shifted line times the continuous root of xi'
    p = HulthenParams(alpha, C)
    arch = ArchContour(eps)
    x = np.linspace(-6, 6, 601)
    levels = hulthen_spectrum(p)
    assert levels
    for level in levels:
        psi = hulthen_wavefunction(p, level, arch, x)
        want = _parent_eigenfunction(level.qn.N, level.aux["tau_beta"],
                                     level.qn.sigma * p.alpha, x - 1j * eps) \
            * np.exp(0.5 * continuous_log(arch.jet(x)[1]))
        assert np.max(np.abs(psi - want) / np.abs(want)) <= 1e-12


def test_hulthen_wavefunction_end_decay():
    p = HulthenParams(2.0, 2.0)
    level = hulthen_spectrum(p)[0]
    x = np.linspace(-12, 12, 2001)
    psi = hulthen_wavefunction(p, level, ArchContour(math.pi / 6), x)
    amax = np.max(np.abs(psi))
    assert abs(psi[0]) / amax <= 1e-6
    assert abs(psi[-1]) / amax <= 1e-6


def test_eckart_spacing():
    p = EckartParams(3.0, 1.0)
    assert eckart_spacing(p, 1) == pytest.approx(3.75)
    levels = eckart_spectrum(p)
    assert eckart_spacing(p, 1) == pytest.approx(levels[1].energy - levels[0].energy, abs=1e-13)
    assert eckart_spacing(EckartParams(3.0, 0.0), 1) == pytest.approx(3.0)
    with pytest.raises(OutOfRange):
        eckart_spacing(p, 0)
    with pytest.raises(OutOfRange):
        eckart_spacing(p, 2)


def test_eckart_spacing_exceeds_one():
    rng = np.random.default_rng(53)
    for _ in range(100):
        A = rng.uniform(2.3, 12.0)
        beta = rng.uniform(-6.0, 6.0)
        nmax = int(math.ceil(A - 1)) - 1
        if nmax < 1:
            continue
        N = int(rng.integers(1, nmax + 1))
        assert eckart_spacing(EckartParams(A, beta), N) > 1.0


def test_wavefunctions_stay_finite_in_the_far_field():
    # the power products are formed in the log domain: each factor alone
    # overflows (sinh^{tau beta + 1/2} at |x| = 120) or underflows (y - 1 at 400)
    p = EckartParams(3.0, 1.0, 0.5)
    for level in eckart_spectrum(p):
        psi = eckart_wavefunction(p, level, np.linspace(-400.0, 400.0, 8001) - 0.5j)
        assert np.all(np.isfinite(psi)) and abs(psi[-1]) < 1e-100
    p = PoschlTellerParams(6.258, 7.64, 0.724)
    # past its reach a level's Jacobi factor overflows; the verifier types it
    levels = [l for l in rpt_spectrum(p) if FAMILIES["rpt"].reach(l) >= 120.0]
    assert {l.qn.label() for l in levels} >= {"(-,-,0)", "(+,-,0)"}
    for level in levels:
        psi = rpt_wavefunction(p, level, np.linspace(-120.0, 120.0, 2401) - 0.724j)
        assert np.all(np.isfinite(psi))


@pytest.mark.parametrize("name", list(FAMILIES))
def test_wavefunction_rejects_a_level_of_another_family(name):
    # an rpt wave function given an Eckart level once sampled that level's
    # quantum numbers as its own, and an Eckart one raised a bare KeyError
    fam = FAMILIES[name]
    params = fam.canonical
    contour = fam.contour(params)
    path = SampledPath(contour.point(np.linspace(-4.0, 4.0, 9)))
    for other in FAMILIES.values():
        if other is fam:
            continue
        for level in other.spectrum(other.canonical):
            with pytest.raises(InvalidParameters, match=f"level must come from {name}_spectrum"):
                fam.wavefunction(params, level, path)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_sampled_path_wavefunctions_equal_the_array_calls(name):
    # every level sampled from one shared SampledPath of the refined rule
    # grid equals, bit for bit, the call that samples the points afresh
    fam = FAMILIES[name]
    params = fam.canonical
    grid = verify_family(params).grid.refined()
    x = grid.points()
    xi = grid.contour.point(x)
    path = SampledPath(xi)
    levels = fam.spectrum(params)
    assert levels
    for level in levels:
        if name == "hulthen":
            plain = hulthen_wavefunction(params, level, grid.contour, x)
            shared = hulthen_wavefunction(params, level, grid.contour, path)
        else:
            wave = eckart_wavefunction if name == "eckart" else rpt_wavefunction
            plain = wave(params, level, xi)
            shared = wave(params, level, path)
        assert shared.dtype == plain.dtype and shared.shape == plain.shape == x.shape
        assert shared.tobytes() == plain.tobytes()


def test_sampled_path_is_array_like_and_keeps_no_failure():
    xi = np.linspace(-1.0, 1.0, 5) + 0j  # sinh vanishes at the middle point
    path = SampledPath(xi)
    assert np.size(path) == 5
    assert np.array_equal(np.asarray(path), xi)
    assert np.array_equal(np.array(path, copy=True), xi)
    level = eckart_spectrum(EckartParams(3.0, 1.0, 0.5))[0]
    for _ in range(2):  # a factor that raised is computed again, and raises again
        with pytest.raises(SingularPoint, match="sinh r vanishes"):
            eckart_wavefunction(EckartParams(3.0, 1.0, 0.5), level, path)
    assert "sinh" not in vars(path)
