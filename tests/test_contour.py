import math

import numpy as np
import pytest

from ptspectra import (
    ArchContour,
    BranchDiscontinuity,
    EckartParams,
    HulthenParams,
    InvalidParameters,
    PoschlTellerParams,
    ShiftedLine,
    SingularPoint,
    Stretched,
    arch_map,
    continuous_log,
    eval_eckart,
    eval_hulthen,
    eval_rpt,
    liouville_potential,
    power_along_path,
    transport_wavefunction,
)
from ptspectra.contour import metric_root, sinh_cosh

_EPS = np.finfo(float).eps
_LONG = np.clongdouble  # the extended-precision reference


def test_map_point_shifted_line():
    assert ShiftedLine(0.35).point(0.0) == -0.35j
    line = ShiftedLine(0.5)
    x = np.linspace(-3, 3, 7)
    assert np.allclose(line.point(x), x - 0.5j)
    assert np.all(line.jet(x)[1] == 1.0)


def test_map_point_arch():
    arch = ArchContour(math.pi / 6)
    assert arch.point(0.0) == pytest.approx(1j * math.log(2.0), abs=1e-14)
    # asymptotic strip edge
    assert arch.point(20.0).real == pytest.approx(math.pi / 3, abs=1e-8)
    assert arch.apex == pytest.approx(math.log(2.0))


def test_arch_derivative_closed_form_and_fd():
    assert ArchContour(math.pi / 4).jet(0.0)[1] == pytest.approx(1.0 + 0j, abs=1e-14)
    arch = ArchContour(0.3)
    h = 1e-5
    fd = (arch.point(1.2 + h) - arch.point(1.2 - h)) / (2 * h)
    assert arch.jet(1.2)[1] == pytest.approx(fd, abs=1e-8)


def test_paths_are_pt_symmetric():
    rng = np.random.default_rng(3)
    x = rng.uniform(-8, 8, 64)
    for c in (ShiftedLine(0.5), ArchContour(0.44), ArchContour(math.pi / 6)):
        assert np.max(np.abs(c.point(-x) + np.conj(c.point(x)))) <= 1e-14


def test_arch_defining_identity():
    rng = np.random.default_rng(5)
    x = rng.uniform(-8, 8, 128)
    eps = math.pi / 6
    xi = ArchContour(eps).point(x)
    assert np.max(np.abs(np.sinh(x - 1j * eps) + 1j * np.exp(1j * xi))) <= 1e-12


def test_contour_epsilon_ranges():
    with pytest.raises(InvalidParameters):
        ShiftedLine(0.0)
    with pytest.raises(InvalidParameters):
        ShiftedLine(math.pi / 2)
    with pytest.raises(InvalidParameters):
        ArchContour(-0.1)


def test_continuous_log_unwraps_full_turns():
    theta = np.linspace(0.0, 3 * math.pi, 400)
    z = np.exp(1j * theta)
    logs = continuous_log(z)
    assert logs[0] == pytest.approx(0.0, abs=1e-14)
    assert logs[-1].imag == pytest.approx(3 * math.pi, abs=1e-10)


def test_continuous_log_rejects_coarse_jumps():
    with pytest.raises(BranchDiscontinuity):
        continuous_log(np.array([1.0, np.exp(2.0j)]))
    with pytest.raises(SingularPoint):
        continuous_log(np.array([1.0, 0.0, -1.0], dtype=complex))


@pytest.mark.parametrize("eps", [1e-3, 0.3, 1.2, math.pi / 2 - 1e-3])
def test_sinh_cosh_match_extended_precision(eps):
    # component by component on the shifted line out to the far field, to the
    # few roundings of the half-angle products; a zero component is exactly zero
    r = np.linspace(-700.0, 700.0, 2801) - 1j * eps
    for got, want in zip(sinh_cosh(r), (np.sinh(r.astype(_LONG)), np.cosh(r.astype(_LONG)))):
        for g, w in ((got.real, want.real), (got.imag, want.imag)):
            assert np.all(np.abs(g - w) <= 4 * _EPS * np.abs(w))


def test_sinh_cosh_overflow_where_numpy_complex_sinh_and_cosh_do():
    # a part overflows where its value passes the float range, not where
    # sinh x alone does (|x| of about 710.5), and a zero sin y gives a zero part
    r = np.array([711.0 - 0.5j, -711.0 - 0.5j, 711.0 + 0j, 712.0 - 0.5j])
    with np.errstate(over="ignore"):
        got, want = sinh_cosh(r), (np.sinh(r), np.cosh(r))
    for g, w in zip(got, want):
        for gp, wp in ((g.real, w.real), (g.imag, w.imag)):
            fin = np.isfinite(wp)
            assert np.array_equal(np.isfinite(gp), fin)
            assert np.all(np.abs(gp[fin] - wp[fin]) <= 4 * _EPS * np.abs(wp[fin]))
    assert np.isfinite(got[0].imag[0]) and got[0].imag[2] == 0


@pytest.mark.parametrize("offset", [1e-12, -1e-12])
def test_continuous_log_matches_extended_precision(offset):
    # |v| = 1 +- 1e-12 over five turns: the real part within what the rounding
    # of v itself allows, 2 eps absolute, and the unwrapped phase to rounding
    theta = np.linspace(0.0, 10 * math.pi, 3001)
    v = (1 + offset) * np.exp(1j * theta)
    logs = continuous_log(v)
    want = np.log(v.astype(_LONG))
    turns = np.round((theta - want.imag.astype(float)) / (2 * math.pi))
    assert turns.max() == 5
    phase = want.imag + 2 * np.pi * turns.astype(np.longdouble)
    assert np.all(np.abs(logs.real - want.real) <= 2 * _EPS)
    assert np.all(np.abs(logs.imag - phase) <= 2 * _EPS * np.maximum(1.0, np.abs(phase)))


@pytest.mark.parametrize("eps", [1e-3, 0.3, math.pi / 6, 1.2, 1.5])
def test_arch_map_jet_matches_extended_precision(eps):
    # the jet from r' = i tanh r, with tanh r and cosh^2 r taken in extended
    # precision from r itself, on the arch out to |x| = 20
    xi = ArchContour(eps).point(np.linspace(-20.0, 20.0, 801))
    r = np.arcsinh(-1j * np.exp(1j * xi.astype(_LONG)))
    t, c2 = np.tanh(r), np.cosh(r) ** 2
    want = (r, 1j * t, -t / c2, 1j * t / c2 * (2 * t ** 2 - 1 / c2))
    tol = 1e-13 if eps < 1.5 else 1e-12  # the pole cosh r = 0 nears the arch
    for got, w in zip(arch_map(xi), want):
        assert np.all(np.abs(got - w) <= tol * np.abs(w))


def test_power_along_path_keeps_branch():
    theta = np.linspace(0.0, 2 * math.pi, 300)
    z = np.exp(1j * theta)
    w = power_along_path((continuous_log(z),), (0.5,))
    # continued square root ends at -1, not the principal +1
    assert w[-1] == pytest.approx(-1.0 + 0j, abs=1e-10)
    naive = z ** 0.5
    assert abs(naive[-1] - 1.0) < 1e-10


def test_power_along_path_scales_only_past_700():
    logs = (np.linspace(-1.0, 1.0, 9) * (1 + 0.5j),)
    # a largest real part up to 700 keeps the unscaled product, bit for bit
    for e in (350.0, 700.0):
        assert np.array_equal(power_along_path(logs, (e,)), np.exp(e * logs[0]))
    # past it the product is scaled to a peak modulus of 1, its shape kept
    for e in (710.0, 7000.0):
        w = power_along_path(logs, (e,))
        assert np.all(np.isfinite(w)) and np.max(np.abs(w)) == 1.0
        ratio = np.exp(e * (logs[0][:-1] - logs[0][-1]))
        assert np.allclose(w[:-1] / w[-1], ratio, rtol=1e-12, atol=0)


def test_liouville_map_validation():
    xi = ArchContour(math.pi / 6).point(np.linspace(0.2, 1.0, 5))
    with pytest.raises(InvalidParameters):
        liouville_potential(lambda r: r ** 2, -1.0, xi)
    with pytest.raises(InvalidParameters):
        liouville_potential(lambda r: r ** 2, 0.0, xi)
    # kappa^2 is not a float past about 1e154
    with pytest.raises(InvalidParameters, match="kappa\\^2 overflows for kappa = 1e\\+300"):
        liouville_potential(lambda r: r ** 2, 1e300, xi)


def test_arch_map_jet_matches_finite_differences(check_jet):
    # the pi/6 arch over `ptspectra transform`'s default window (-3, 3, 101)
    xi = ArchContour(math.pi / 6).point(np.linspace(-3.0, 3.0, 101))
    assert np.array_equal(check_jet(arch_map, xi)[0], arch_map(xi)[0])


def test_liouville_derivative_cross_check_catches_lies(check_jet):
    def bad(z):
        r, r1, r2, r3 = arch_map(z)
        return r, r1, 1.1 * r2, r3

    xi = ArchContour(math.pi / 6).point(np.linspace(-2, 2, 21))
    check_jet(arch_map, xi)
    with pytest.raises(AssertionError, match="analytic r'' disagrees"):
        check_jet(bad, xi)


def test_scalars_equal_one_element_arrays():
    # a scalar goes through numpy's 0-d rules: its result is 0-d and holds
    # entry 0 of the result for the one-element array. Not always bit for
    # bit: numpy may multiply complex arrays with fused multiply-adds and
    # 0-d operands without, so a complex product can differ by an ulp
    arch = ArchContour(math.pi / 6)
    xi = arch.point(np.array([0.7]))[0]
    calls = []
    for path in (ShiftedLine(0.5), arch, Stretched(arch, 0.7)):
        calls.append((path.point, 0.7))
        calls += [(lambda x, path=path, k=k: path.jet(x)[k], 0.7) for k in range(4)]
    calls += [
        (lambda r: eval_eckart(EckartParams(3.0, 1.0), r), 0.4 - 0.5j),
        (lambda r: eval_rpt(PoschlTellerParams(3.5, 1.5), r), 0.4 - 0.3j),
        (lambda z: eval_hulthen(HulthenParams(2.0, 2.0), z), xi),
        (lambda z: liouville_potential(lambda r: np.sinh(r) ** -2, 1.5, z), xi),
        (lambda r: sinh_cosh(r)[0], 0.4 - 0.5j),
        (lambda r: sinh_cosh(r)[1], 0.4 - 0.5j),
        (continuous_log, 0.4 - 0.5j),
    ]
    for f, x in calls:
        scalar, array = np.asarray(f(x)), f(np.array([x]))
        assert scalar.shape == () and array.shape == (1,)
        assert scalar.dtype == array.dtype
        assert abs(scalar - array[0]) <= 4 * np.finfo(float).eps * abs(array[0])


def test_arch_map_inverts_the_arch():
    # r(xi(x)) must reproduce the shifted line x - i eps that generated it
    eps = math.pi / 6
    x = np.linspace(-6, 6, 41)
    xi = ArchContour(eps).point(x)
    assert np.max(np.abs(arch_map(xi)[0] - (x - 1j * eps))) <= 1e-12


def test_arch_chain_rule():
    eps = 0.4
    x = np.linspace(-5, 5, 33)
    arch = ArchContour(eps)
    chain = arch_map(arch.point(x))[1] * arch.jet(x)[1]
    assert np.max(np.abs(chain - 1.0)) <= 1e-10


def test_transport_trivial_and_branch():
    xi = np.linspace(-1, 1, 11).astype(complex)
    chi = lambda r: np.exp(-r ** 2)
    out = transport_wavefunction(chi, xi, metric_root(np.ones_like(xi)))
    assert np.allclose(out, chi(xi), atol=1e-14)

    # r' = -1 everywhere: 1/sqrt(-1) is one fixed branch, no sign flips
    const = transport_wavefunction(lambda r: np.ones_like(r), -xi, metric_root(-np.ones_like(xi)))
    assert np.allclose(const, const[0])
    assert abs(const[0] ** 2 + 1.0) <= 1e-12  # (1/sqrt(-1))^2 = -1
    with pytest.raises(SingularPoint, match="r'"):
        metric_root(np.array([1.0, 0.0, 1.0]))
