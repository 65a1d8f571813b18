import math

import numpy as np
import pytest

from ptspectra import (
    ArchContour,
    EckartParams,
    HulthenParams,
    InvalidParameters,
    PoschlTellerParams,
    ShiftedLine,
    SingularPoint,
    eval_eckart,
    eval_hulthen,
    eval_rpt,
    eckart_spectrum,
    hulthen_spectrum,
    pt_defect,
    rpt_spectrum,
)


class _RealLine:
    """Identity path for real-axis checks."""

    def point(self, x):
        return np.asarray(x, dtype=complex)


def test_param_validation():
    with pytest.raises(InvalidParameters):
        EckartParams(3.0, 1.0, epsilon=0.0)
    with pytest.raises(InvalidParameters):
        EckartParams(3.0, 1.0, epsilon=math.pi)
    # the shift's range is its ShiftedLine's, (0, pi/2): refused here, not
    # later inside verification
    with pytest.raises(InvalidParameters):
        EckartParams(3.0, 1.0, epsilon=2.0)
    with pytest.raises(InvalidParameters):
        PoschlTellerParams(-1.0, 1.5)
    with pytest.raises(InvalidParameters):
        PoschlTellerParams(3.5, 1.5, epsilon=2.0)
    with pytest.raises(InvalidParameters):
        HulthenParams(0.0, 2.0)
    # the arch angle is held to its ArchContour's range the same way
    with pytest.raises(InvalidParameters):
        HulthenParams(2.0, 2.0, epsilon=math.pi / 2)
    # couplings too large to enumerate: past about 2^53, A - N - 1 rounds
    # back to A, and 10^5 Eckart levels pass the 10^4 slot cap
    for spectrum, params in (
        (eckart_spectrum, EckartParams(1e17, 1.0)), (eckart_spectrum, EckartParams(1e5, 1.0)),
        (rpt_spectrum, PoschlTellerParams(1e17, 1.0)),
        (hulthen_spectrum, HulthenParams(2.0, -1e12)), (hulthen_spectrum, HulthenParams(1e17, 2.0)),
    ):
        with pytest.raises(InvalidParameters, match="enumeration passes 10000 slots"):
            spectrum(params)


@pytest.mark.parametrize("spectrum, record, values", [
    (eckart_spectrum, EckartParams, (3.0, 1e300)),
    (eckart_spectrum, EckartParams, (1.5, 1e154)),
    (rpt_spectrum, PoschlTellerParams, (1e300, 1.5)),
    (hulthen_spectrum, HulthenParams, (2.0, 1e300)),
], ids=["eckart", "eckart_infinite_energy", "rpt", "hulthen"])
def test_couplings_that_overflow_the_closed_form_are_invalid(spectrum, record, values):
    # past about 1e154, squaring a coupling with ** raises OverflowError;
    # beta^2 / D^2 with beta = 1e154 and D = 1/2 overflows to inf. The
    # record itself refuses a coupling that its potential squares.
    with pytest.raises(InvalidParameters, match="couplings are too large"):
        spectrum(record(*values))


@pytest.mark.parametrize("record, values, coupling", [
    (EckartParams, (1e300, 1.0), "A"),
    (PoschlTellerParams, (1e300, 1.5), "alpha"),
    (PoschlTellerParams, (3.5, 1e300), "beta"),
    (HulthenParams, (1e300, 2.0), "alpha"),
], ids=["eckart_A", "rpt_alpha", "rpt_beta", "hulthen_alpha"])
def test_a_coupling_whose_square_overflows_is_named(record, values, coupling):
    # A (A - 1), alpha^2 and beta^2 are not floats past about 1e154
    with pytest.raises(InvalidParameters) as info:
        record(*values)
    assert f"{coupling}^2 overflows for {coupling} = 1e+300" in str(info.value)


def test_hulthen_derived_couplings():
    p = HulthenParams(2.0, 2.0)
    assert p.A == pytest.approx(1 - 4.0)
    assert p.B == pytest.approx(2.0 - p.A)
    assert p.A + p.B == pytest.approx(p.C, abs=0)


def test_eval_eckart_values():
    assert eval_eckart(EckartParams(1.0, 0.0), 1.0 + 0j) == 0
    # sinh^2(-i pi/4) = -1/2
    v = eval_eckart(EckartParams(2.0, 0.0), -1j * math.pi / 4)
    assert v == pytest.approx(-4.0 + 0j, abs=1e-13)


def test_eval_eckart_pt_pair():
    p = EckartParams(3.0, 1.0, 0.5)
    line = ShiftedLine(0.5)
    x = 0.7
    a = eval_eckart(p, line.point(x))
    b = eval_eckart(p, line.point(-x))
    assert b == pytest.approx(np.conj(a), abs=1e-13)


def test_eval_eckart_far_field_real_part_matches_extended_precision():
    # at |x| = 18 Re V is about 1e-16 |V|, as small as Im coth r, so
    # cosh r / sinh r would lose it to the rounding of Re coth r; the
    # reference takes 1/tanh r (its cosh/sinh form is off by 5e-6 itself)
    p = EckartParams(2.2577311588649476, 1.6803787172842317, 1.1471301707026471)
    r = np.array([-18.0, 18.0]) - 1j * p.epsilon
    rl, A = r.astype(np.clongdouble), np.longdouble(p.A)
    want = A * (A - 1) / np.sinh(rl) ** 2 - 2j * np.longdouble(p.beta) / np.tanh(rl)
    got = eval_eckart(p, r)
    assert np.all(np.abs(got.real - want.real) <= 1e-12 * np.abs(want.real))
    assert np.all(np.abs(got.imag - want.imag) <= 1e-12 * np.abs(want.imag))


def test_eval_eckart_singularity_floor():
    with pytest.raises(SingularPoint):
        eval_eckart(EckartParams(3.0, 1.0), 1e-13 + 0j)


def test_eval_rpt_values():
    assert eval_rpt(PoschlTellerParams(0.5, 0.5), 0.8 - 0.2j) == 0
    v = eval_rpt(PoschlTellerParams(0.5, 1.5), -1j * math.pi / 4)
    assert v == pytest.approx(-4.0 + 0j, abs=1e-13)


def test_eval_rpt_uniform_bound():
    p = PoschlTellerParams(3.5, 1.5, 0.3)
    line = ShiftedLine(0.3)
    x = np.linspace(-10, 10, 401)
    vals = eval_rpt(p, line.point(x))
    bound = (p.beta ** 2 - 0.25) / math.sin(p.epsilon) ** 2 \
        + (p.alpha ** 2 - 0.25) / math.cos(p.epsilon) ** 2
    assert np.max(np.abs(vals)) <= bound


def test_regularity_identity():
    # |sinh(x-i eps)|^2 = sinh^2 x + sin^2 eps
    eps = 0.3
    x = np.linspace(-10, 10, 101)
    lhs = np.abs(np.sinh(x - 1j * eps)) ** 2
    rhs = np.sinh(x) ** 2 + math.sin(eps) ** 2
    assert np.max(np.abs(lhs - rhs) / (1 + np.abs(rhs))) <= 1e-13


def test_small_epsilon_expansion():
    eps, x = 1e-4, 0.5
    lhs = (1.0 / np.sinh(x - 1j * eps) ** 2).imag
    rhs = 2 * eps * math.cosh(x) / math.sinh(x) ** 3
    assert abs(lhs - rhs) / abs(rhs) <= 1e-6


def test_eval_hulthen_values():
    p0 = HulthenParams(1.0, 1.0)  # A = 0, B = 1
    assert p0.A == 0
    assert eval_hulthen(p0, 0.4 + 0.2j) != 0
    # e^{2 i xi} = 2 at xi = -i ln(2)/2, so B/(1-2) = -1
    xi = -0.5j * math.log(2.0)
    assert eval_hulthen(p0, xi) == pytest.approx(-1.0 + 0j, abs=1e-13)


def test_eval_hulthen_zero_couplings():
    class _Zero:
        A = 0.0
        B = 0.0
    assert eval_hulthen(_Zero(), 0.3 - 0.1j) == 0


def test_eval_hulthen_regular_on_arch():
    p = HulthenParams(2.0, 2.0)
    arch = ArchContour(math.pi / 6)
    x = np.linspace(-12, 12, 801)
    vals = eval_hulthen(p, arch.point(x))
    assert np.all(np.isfinite(vals))


def test_eval_hulthen_singularity_floor():
    with pytest.raises(SingularPoint):
        eval_hulthen(HulthenParams(2.0, 2.0), 1e-14 + 0j)


def test_pt_defect_real_symmetric_potential():
    x = np.linspace(-5, 5, 101)
    d = pt_defect(lambda z: z ** 2, _RealLine(), x)
    assert d <= 1e-15


@pytest.mark.parametrize("family,make", [
    ("eckart", lambda: (EckartParams(3.0, 1.0, 0.5), ShiftedLine(0.5), eval_eckart)),
    ("rpt", lambda: (PoschlTellerParams(3.5, 1.5, 0.3), ShiftedLine(0.3), eval_rpt)),
    ("hulthen", lambda: (HulthenParams(2.0, 2.0), ArchContour(math.pi / 6), eval_hulthen)),
])
def test_pt_defect_canonical_contours(family, make):
    p, contour, ev = make()
    x = np.linspace(-8, 8, 201)
    assert pt_defect(lambda z: ev(p, z), contour, x) <= 1e-12


def test_evaluators_stay_finite_in_the_far_field():
    for x in (400.0, -400.0):
        assert np.isfinite(eval_eckart(EckartParams(3.0, 1.0, 0.5), x - 0.5j))
        assert np.isfinite(eval_rpt(PoschlTellerParams(3.5, 1.5, 0.3), x - 0.3j))
        assert np.isfinite(eval_hulthen(HulthenParams(2.0, 2.0), 0.5 + 1j * x))
