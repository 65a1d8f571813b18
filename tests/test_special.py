import numpy as np
import pytest

from ptspectra import (
    DegenerateRecurrence,
    PoleInC,
    gauss2f1_terminating,
    jacobi_p_hyp,
    jacobi_p_rec,
)


@pytest.mark.parametrize("f", [gauss2f1_terminating, jacobi_p_hyp, jacobi_p_rec])
def test_a_negative_degree_is_refused(f):
    with pytest.raises(ValueError, match="must be a non-negative integer"):
        f(-1, 0.5, 1.5, 0.3)


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


@pytest.mark.parametrize("a, b, y", [
    (3.2818438545882396 + 1.2537601474775908j, 2.536877527776749 + 2.73569518234671j,
     -0.9966040987011198 + 0.07928227059129833j),
    (3.1653895180393956 + 0.373566095931261j, 3.344740822811908 - 0.2541068471776393j,
     -0.6838679058738397 + 0.012195079128601627j),
], ids=["tabulate_seed_66", "tabulate_seed_169"])
def test_jacobi_hyp_near_minus_one_matches_the_recurrence(a, b, y):
    # (1-y)/2 near 1 cancels the series' terms; they deviated by 1.0e-10
    # and 3.2e-10, past the 1e-10 oracle bound, before the reflection
    h, r = jacobi_p_hyp(15, a, b, y), jacobi_p_rec(15, a, b, y)
    assert abs(h - r) <= 1e-11 * (1 + abs(h))


def test_jacobi_hyp_keeps_its_form_where_the_reflection_has_a_pole():
    # b + 1 = -1: the reflected series' (c)_k vanishes at k = 1 < n
    a, b, y = 0.5 + 0.2j, -2.0, -0.5 + 0.1j
    h, r = jacobi_p_hyp(3, a, b, y), jacobi_p_rec(3, a, b, y)
    assert abs(h - r) <= 1e-12 * (1 + abs(h))


def test_jacobi_rec_degenerate_coefficient():
    # m=2 gives m+a+b = 0, zeroing the leading recurrence coefficient
    with pytest.raises(DegenerateRecurrence):
        jacobi_p_rec(2, -3.0, 1.0, 0.4)
    # the hypergeometric route has no such degeneracy here
    jacobi_p_hyp(2, -3.0, 1.0, 0.4)
