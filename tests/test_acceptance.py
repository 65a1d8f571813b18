"""End-to-end acceptance checks, one per shipped guarantee.

Each test computes the advertised quantity at the advertised tolerance and
logs a single verdict line; the collected lines are printed as a checklist
after the run. Tolerances here are contracts, not aspirations: do not relax
them to make a failing build green.
"""

import math

import numpy as np
import pytest

from ptspectra import (
    ArchContour,
    DegenerateRecurrence,
    EckartParams,
    HulthenParams,
    PoleInC,
    PoschlTellerParams,
    ShiftedLine,
    eckart_spacing,
    eckart_spectrum,
    eckart_wavefunction,
    eval_eckart,
    eval_hulthen,
    eval_rpt,
    hulthen_spectrum,
    jacobi_p_hyp,
    jacobi_p_rec,
    liouville_potential,
    pt_defect,
    rpt_real_energy_condition,
    rpt_spectrum,
    rpt_wavefunction,
    verify_family,
)
from ptspectra.numeric import Grid, build_hamiltonian, residual

ECK = EckartParams(3.0, 1.0, 0.5)
RPT = PoschlTellerParams(3.5, 1.5, 0.3)
HUL = HulthenParams(2.0, 2.0)


def _verdict(log, idx, what, ok, detail):
    log(f"[{idx:2d}] {what} ({detail}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"{what}: {detail}"


def _odd_distance(a):
    k = round((a - 1.0) / 2.0)
    return abs(a - (2.0 * k + 1.0))


def test_eckart_energies_verified_on_shifted_line(accept_log):
    closed = [l.energy for l in eckart_spectrum(ECK)]
    rep = verify_family(ECK)
    max_de = max(e.abs_err for e in rep.entries)
    max_im = max(e.im_abs for e in rep.entries)
    ok = (
        closed == pytest.approx([-3.75, 0.0], abs=1e-12)
        and len(rep.entries) == 2
        and rep.passed
        and max_de <= 1e-5
        and max_im <= 1e-7
    )
    _verdict(accept_log, 1, "eckart closed form vs eigensolver", ok,
             f"max |dE|={max_de:.2e} tol 1e-5, max |Im l|={max_im:.2e} tol 1e-7")


def test_rpt_three_levels_verified(accept_log):
    levels = rpt_spectrum(RPT)
    labels = [l.qn.label() for l in levels]
    energies = [l.energy for l in levels]
    rep = verify_family(RPT)
    max_de = max(e.abs_err for e in rep.entries)
    ok = (
        labels == ["(-,-,0)", "(-,-,1)", "(-,+,0)"]
        and energies == pytest.approx([-16.0, -4.0, -1.0], abs=1e-12)
        and not any(l.qn.sigma == 1 and l.qn.tau == -1 for l in levels)
        and rep.passed
        and max_de <= 1e-6
    )
    _verdict(accept_log, 2, "rpt three-level spectrum with labels", ok,
             f"levels={labels}, max |dE|={max_de:.2e} tol 1e-6")


def test_rpt_family_existence_inequalities(accept_log):
    rng = np.random.default_rng(42)
    mismatches = 0
    for _ in range(1000):
        alpha, beta = rng.uniform(0.0, 6.0, size=2)
        levels = rpt_spectrum(PoschlTellerParams(alpha, beta, 0.3))
        seen = {(-1, -1): False, (-1, 1): False, (1, -1): False}
        for l in levels:
            key = (l.qn.sigma, l.qn.tau)
            if key in seen:
                seen[key] = True
        want = {
            (-1, -1): alpha + beta > 1.0,
            (-1, 1): alpha > beta + 1.0,
            (1, -1): beta > alpha + 1.0,
        }
        if seen != want:
            mismatches += 1
    ok = mismatches == 0
    _verdict(accept_log, 3, "family existence iff coupling inequalities", ok,
             f"{mismatches}/1000 draws disagree")


def test_liouville_transform_reproduces_hulthen(accept_log):
    level = hulthen_spectrum(HUL)[0]
    kappa = level.aux["kappa"]
    tb = level.aux["tau_beta"]

    def parent(r):
        return (tb * tb - 0.25) / np.sinh(r) ** 2 \
            - (HUL.alpha ** 2 - 0.25) / np.cosh(r) ** 2

    xi = ArchContour(math.pi / 6).point(np.linspace(-3.0, 3.0, 101))
    v_liou = liouville_potential(parent, kappa, xi)
    v_closed = eval_hulthen(HUL, xi) - kappa ** 2
    worst = float(np.max(np.abs(v_liou - v_closed)))
    ok = level.qn.sigma == -1 and level.qn.N == 0 and worst <= 1e-6
    _verdict(accept_log, 4, "liouville image of the parent potential", ok,
             f"max |dV|={worst:.2e} tol 1e-6, 101 points")


def test_hulthen_energy_algebra(accept_log):
    rng = np.random.default_rng(42)
    worst_e = worst_c = 0.0
    checked = 0
    all_positive = True
    while checked < 100:
        alpha = rng.uniform(0.2, 6.0)
        if _odd_distance(alpha) < 0.1:
            continue  # |s| >= 0.1 keeps kappa off the float-rounding cliff
        C = rng.uniform(-8.0, 8.0)
        for level in hulthen_spectrum(HulthenParams(alpha, C)):
            if checked >= 100:
                break
            s = level.aux["s"]
            tb = level.aux["tau_beta"]
            kappa = level.aux["kappa"]
            worst_e = max(worst_e, abs(level.energy - kappa ** 2))
            worst_c = max(worst_c, abs(C - s * (s + 2 * tb)))
            all_positive = all_positive and level.energy > 0
            checked += 1
    ok = worst_e <= 1e-12 and worst_c <= 1e-12 and all_positive
    _verdict(accept_log, 5, "hulthen energy algebra on random levels", ok,
             f"max |E-k^2|={worst_e:.2e}, max |C-s(s+2tb)|={worst_c:.2e}, "
             f"tol 1e-12, all E>0: {all_positive}")


def test_residual_convergence_order_and_convention(accept_log, printed_eckart_wavefunction):
    def orders(params, eps, a, b, steps, wave):
        line = ShiftedLine(eps)
        spectrum = (eckart_spectrum if isinstance(params, EckartParams)
                    else rpt_spectrum)(params)
        ev = eval_eckart if isinstance(params, EckartParams) else eval_rpt
        out = []
        for level in spectrum:
            res = []
            for n in steps:
                grid = Grid(a, b, n, line)
                H = build_hamiltonian(lambda z: ev(params, z), grid)
                psi = wave(level, line.point(grid.points()))
                res.append(residual(psi, level.energy, H))
            out.append((level.qn.N, math.log2(res[0] / res[1]), res))
        return out

    eck = orders(ECK, 0.5, -18, 18, (3601, 7201),
                 lambda l, z: eckart_wavefunction(ECK, l, z))
    rpt = orders(RPT, 0.3, -12, 12, (2401, 4801),
                 lambda l, z: rpt_wavefunction(RPT, l, z))
    wrong = orders(ECK, 0.5, -18, 18, (3601, 7201),
                   lambda l, z: printed_eckart_wavefunction(ECK, l, z))
    good = all(3.8 <= o <= 4.2 for _, o, _ in eck + rpt)
    # degree-0 polynomials cannot distinguish the conventions; N >= 1 can
    distinguishing = [r for N, _, r in wrong if N >= 1]
    rejected = bool(distinguishing) and all(r[0] > 0.5 and r[1] > 0.5
                                            for r in distinguishing)
    ok = good and rejected
    _verdict(accept_log, 6, "h -> h/2 Numerov residual order and convention arbitration", ok,
             f"orders={[f'{o:.3f}' for _, o, _ in eck + rpt]} in [3.8,4.2], "
             f"flat-parameter residuals stay O(1): {rejected}")


def test_eckart_spacing_identity_and_bound(accept_log):
    rng = np.random.default_rng(42)
    checked = 0
    worst = 0.0
    min_spacing = math.inf
    while checked < 500:
        A = rng.uniform(2.05, 12.0)
        beta = rng.uniform(-6.0, 6.0)
        p = EckartParams(A, beta, 0.5)
        levels = {l.qn.N: l.energy for l in eckart_spectrum(p)}
        # keep D = A-N-1 away from the closure point, where E ~ beta^2/D^2
        # makes a 1e-12 absolute comparison meaningless in float64
        valid = [N for N in levels if N >= 1 and A - N - 1 >= 0.25]
        if not valid:
            continue
        N = int(rng.choice(valid))
        gap = eckart_spacing(p, N)
        worst = max(worst, abs(gap - (levels[N] - levels[N - 1])))
        min_spacing = min(min_spacing, gap)
        checked += 1
    ok = worst <= 1e-12 and min_spacing > 1.0
    _verdict(accept_log, 7, "level spacing closed form and lower bound", ok,
             f"max |gap - dE|={worst:.2e} tol 1e-12, min gap={min_spacing:.4f} > 1")


def test_pt_defect_and_arch_identity(accept_log):
    xs = np.linspace(-8.0, 8.0, 201)
    defects = [
        pt_defect(lambda z: eval_eckart(ECK, z), ShiftedLine(0.5), xs),
        pt_defect(lambda z: eval_rpt(RPT, z), ShiftedLine(0.3), xs),
        pt_defect(lambda z: eval_hulthen(HUL, z), ArchContour(math.pi / 6), xs),
    ]
    x = np.linspace(-8.0, 8.0, 257)
    xi = ArchContour(math.pi / 6).point(x)
    arch_dev = float(np.max(np.abs(np.sinh(x - 1j * math.pi / 6) + 1j * np.exp(1j * xi))))
    ok = max(defects) <= 1e-12 and arch_dev <= 1e-12
    _verdict(accept_log, 8, "PT defect on canonical contours and arch identity", ok,
             f"max defect={max(defects):.2e}, max |sinh(x-ie)+i e^(i xi)|={arch_dev:.2e}, "
             f"tol 1e-12")


def test_eckart_contour_independence(accept_log):
    reps = [verify_family(EckartParams(3.0, 1.0, eps)) for eps in (0.3, 0.6, 1.0)]
    worst = 0.0
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            for a, b in zip(reps[i].entries, reps[j].entries):
                worst = max(worst, abs(a.eigenvalue - b.eigenvalue))
    ok = all(r.passed for r in reps) and worst <= 1e-6
    _verdict(accept_log, 9, "eigenvalues independent of the line shift", ok,
             f"max pairwise |dl|={worst:.2e} tol 1e-6 over eps in (0.3, 0.6, 1.0)")


def test_rpt_real_energy_condition(accept_log):
    rng = np.random.default_rng(42)
    worst_im = 0.0
    violations = 0
    for _ in range(100):
        sigma = int(rng.choice((-1, 1)))
        tau = int(rng.choice((-1, 1)))
        N = int(rng.integers(0, 4))
        alpha = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        beta = complex(rng.uniform(-3, 3), -sigma * alpha.imag / tau)
        real_ok, E = rpt_real_energy_condition(alpha, beta, sigma, tau, N)
        worst_im = max(worst_im, abs(E.imag))
        if not real_ok:
            violations += 1
    generic_fail = 0
    tried = 0
    while tried < 100:
        sigma = int(rng.choice((-1, 1)))
        tau = int(rng.choice((-1, 1)))
        N = int(rng.integers(0, 4))
        alpha = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        beta = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        w = 2 * N + 1 + sigma * alpha + tau * beta
        if abs(w.imag) < 1e-6 or abs(w.real) < 1e-6:
            continue  # stay generic: avoid the measure-zero real-E branches
        real_ok, _ = rpt_real_energy_condition(alpha, beta, sigma, tau, N)
        if not real_ok:
            generic_fail += 1
        tried += 1
    ok = violations == 0 and worst_im <= 1e-12 and generic_fail == 100
    _verdict(accept_log, 10, "Im E = 0 iff Im(sigma a + tau b) = 0", ok,
             f"max |Im E|={worst_im:.2e} tol 1e-12 on 100 constrained draws; "
             f"{generic_fail}/100 unconstrained draws complex")


def test_jacobi_oracles_agree(accept_log):
    rng = np.random.default_rng(42)
    checked = 0
    worst = 0.0
    while checked < 300:
        n = int(rng.integers(0, 16))
        a, b, y = (complex(rng.uniform(-3.5, 3.5), rng.uniform(-3.5, 3.5))
                   for _ in range(3))
        if any(abs(a + 1 + k) < 1e-2 for k in range(n)):
            continue  # hypergeometric form is singular at a = -1, ..., -n
        try:
            h = jacobi_p_hyp(n, a, b, y)
            r = jacobi_p_rec(n, a, b, y)
        except (PoleInC, DegenerateRecurrence):
            continue
        worst = max(worst, abs(h - r) / (1 + abs(h)))
        checked += 1
    ok = worst <= 1e-10
    _verdict(accept_log, 11, "terminating-series vs recurrence jacobi values", ok,
             f"max rel dev={worst:.2e} tol 1e-10 over 300 draws, n <= 15")
