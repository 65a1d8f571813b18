import math

import numpy as np
import pytest

from ptspectra import (
    ArchContour,
    BranchDiscontinuity,
    DerivativeInconsistency,
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
    identity_map,
    liouville_potential,
    power_along_path,
    transport_wavefunction,
)
from ptspectra.contour import metric_root


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


def test_power_along_path_keeps_branch():
    theta = np.linspace(0.0, 2 * math.pi, 300)
    z = np.exp(1j * theta)
    w = power_along_path(z, 0.5)
    # continued square root ends at -1, not the principal +1
    assert w[-1] == pytest.approx(-1.0 + 0j, abs=1e-10)
    naive = z ** 0.5
    assert abs(naive[-1] - 1.0) < 1e-10


def test_liouville_map_validation():
    xi = np.linspace(0.2, 1.0, 5) - 0.3j
    with pytest.raises(InvalidParameters):
        liouville_potential(lambda r: r ** 2, -1.0, identity_map, xi)
    with pytest.raises(InvalidParameters):
        liouville_potential(lambda r: r ** 2, 0.0, identity_map, xi)


def test_liouville_identity_map():
    xi = np.linspace(0.2, 1.0, 5) - 0.3j
    out = liouville_potential(lambda r: r ** 2, 1.5, identity_map, xi)
    assert np.allclose(out, xi ** 2 + 2.25, atol=1e-12)


def test_liouville_linear_map():
    # r = 2 xi: pure rescaling, curvature terms vanish
    linear = lambda z: (2.0 * z, np.full_like(z, 2.0), np.zeros_like(z), np.zeros_like(z))
    xi = np.linspace(-1.0, 1.0, 9) + 0.1j
    out = liouville_potential(lambda r: np.cos(r), 0.7, linear, xi)
    assert np.allclose(out, 4.0 * (np.cos(2 * xi) + 0.49), atol=1e-12)


def test_liouville_derivative_cross_check_catches_lies():
    def bad(z):
        r, r1, r2, r3 = arch_map(z)
        return r, r1, 1.1 * r2, r3

    xi = ArchContour(math.pi / 6).point(np.linspace(-2, 2, 21))
    liouville_potential(lambda r: np.sinh(r) ** -2, 1.5, arch_map, xi)
    with pytest.raises(DerivativeInconsistency, match="r''"):
        liouville_potential(lambda r: np.sinh(r) ** -2, 1.5, bad, xi)


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
        (lambda z: liouville_potential(lambda r: np.sinh(r) ** -2, 1.5, arch_map, z), xi),
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
    out = transport_wavefunction(chi, identity_map, xi)
    assert np.allclose(out, chi(xi), atol=1e-14)

    # r' = -1 everywhere: 1/sqrt(-1) is one fixed branch, no sign flips
    flip = lambda z: (-z, -np.ones_like(z), np.zeros_like(z), np.zeros_like(z))
    const = transport_wavefunction(lambda r: np.ones_like(r), flip, xi)
    assert np.allclose(const, const[0])
    assert abs(const[0] ** 2 + 1.0) <= 1e-12  # (1/sqrt(-1))^2 = -1


def test_held_logs_and_root_give_the_values_taken_afresh():
    # a caller holding the bases' logs, or the map's r and root, gets the
    # same values bit for bit as the calls that take them again
    r = ArchContour(0.4).point(np.linspace(-3.0, 3.0, 61))
    sh, ch = np.sinh(r), np.cosh(r)
    held = power_along_path(sh, 1.7, ch, -0.3 + 0.2j,
                            logs=(continuous_log(sh), continuous_log(ch)))
    assert held.tobytes() == power_along_path(sh, 1.7, ch, -0.3 + 0.2j).tobytes()

    chi = lambda z: np.exp(-z ** 2)
    mapped, rp = arch_map(r)[:2]
    held = transport_wavefunction(chi, arch_map, r, mapped=(mapped, metric_root(rp)))
    assert held.tobytes() == transport_wavefunction(chi, arch_map, r).tobytes()
    with pytest.raises(SingularPoint, match="r'"):
        metric_root(np.array([1.0, 0.0, 1.0]))
