import numpy as np
import pytest

from ptspectra import (
    DegenerateRecurrence,
    HypergeometricReduction,
    PoleInC,
    gauss2f1_terminating,
    jacobi_p_hyp,
    jacobi_p_rec,
    pochhammer,
)


def test_pochhammer_values():
    assert pochhammer(2.5 + 0j, 0) == 1
    assert pochhammer(1.0, 4) == 24
    assert pochhammer(-2.0, 3) == 0
    assert pochhammer(2.5, 2) == pytest.approx(8.75)


def test_pochhammer_splitting():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        j = int(rng.integers(0, 6))
        k = int(rng.integers(0, 6))
        whole = pochhammer(a, j + k)
        split = pochhammer(a, j) * pochhammer(a + j, k)
        assert abs(whole - split) <= 1e-13 * (1 + abs(whole))


def test_pochhammer_array_argument():
    a = np.array([1.0 + 0j, -2.0, 2.5])
    out = pochhammer(a, 3)
    assert np.allclose(out, [6.0, 0.0, 2.5 * 3.5 * 4.5])


def test_gauss2f1_single_term_and_z0():
    assert gauss2f1_terminating(0, 1.7 - 0.3j, 0.9j + 1, 5.0) == 1
    assert gauss2f1_terminating(3, 2.0, 3.0, 0.0) == 1


def test_gauss2f1_two_term_hand_sum():
    # 1 + (-1)(2)/(3) * 0.5
    val = gauss2f1_terminating(1, 2.0, 3.0, 0.5)
    assert val == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_gauss2f1_pole_in_c():
    # (c)_k hits zero at k=2 before the series terminates
    with pytest.raises(PoleInC):
        gauss2f1_terminating(3, 1.0, -1.0, 0.3)
    # but a pole beyond the last term is harmless
    gauss2f1_terminating(1, 1.0, -1.5, 0.3)
    # one entry of an array c is enough
    with pytest.raises(PoleInC):
        gauss2f1_terminating(3, 1.0, np.array([0.5, -1.0]), 0.3)
    gauss2f1_terminating(1, 1.0, np.array([0.5, -1.5]), 0.3)


def test_scalar_calls_accumulate_in_extended_precision():
    # the same sum taken in np.clongdouble and rounded once at the end
    N, b, c, z = 9, 1.3 - 0.2j, 0.7 + 0.1j, 0.9 - 0.4j
    bv, cv, zv = np.clongdouble(b), np.clongdouble(c), np.clongdouble(z)
    term = total = np.clongdouble(1)
    for k in range(N):
        term = term * ((-N + k) * (bv + k)) / ((cv + k) * (k + 1)) * zv
        total = total + term
    assert gauss2f1_terminating(N, b, c, z) == complex(total)
    assert type(gauss2f1_terminating(N, b, c, z)) is complex


def test_gauss2f1_is_polynomial_of_degree_n():
    # N+1 forward differences on N+2 equispaced points annihilate a
    # degree-N polynomial
    N = 4
    z = np.linspace(0.1, 1.3, N + 2)
    vals = np.array([gauss2f1_terminating(N, 1.3 - 0.2j, 0.7 + 0.1j, t) for t in z])
    d = vals.copy()
    for _ in range(N + 1):
        d = np.diff(d)
    assert np.max(np.abs(d)) <= 1e-10 * np.max(np.abs(vals))


def test_gauss2f1_array_matches_scalar():
    z = np.linspace(-1, 1, 7).astype(complex)
    arr = gauss2f1_terminating(3, 1.2 - 0.4j, 0.9, z)
    sc = np.array([gauss2f1_terminating(3, 1.2 - 0.4j, 0.9, t) for t in z])
    assert np.max(np.abs(arr - sc)) <= 1e-13


def test_jacobi_low_orders():
    assert jacobi_p_hyp(0, 1.1, -0.3, 2.7 + 1j) == 1
    assert jacobi_p_rec(0, 1.1, -0.3, 2.7 + 1j) == 1
    assert jacobi_p_hyp(1, 0.0, 0.0, 0.3) == pytest.approx(0.3)
    assert jacobi_p_rec(1, 0.0, 0.0, 0.3) == pytest.approx(0.3)
    assert jacobi_p_hyp(2, 0.0, 0.0, 1.0) == pytest.approx(1.0)


def test_jacobi_cross_check_complex_parameters():
    a, b, y = 1.2 - 0.4j, 0.7, 2 + 1j
    h = jacobi_p_hyp(6, a, b, y)
    r = jacobi_p_rec(6, a, b, y)
    assert abs(h - r) <= 1e-10 * (1 + abs(h))


def test_jacobi_rec_degenerate_coefficient():
    # m=2 gives m+a+b = 0, zeroing the leading recurrence coefficient
    with pytest.raises(DegenerateRecurrence):
        jacobi_p_rec(2, -3.0, 1.0, 0.4)
    # the hypergeometric route has no such degeneracy here
    jacobi_p_hyp(2, -3.0, 1.0, 0.4)


def test_reduction_record_terminating_flag():
    red = HypergeometricReduction(a=2.5, b=-3.0 + 0j, c=1.5, z_map="test")
    assert red.is_terminating()
    assert not HypergeometricReduction(a=2.5, b=0.5, c=1.5, z_map="test").is_terminating()
