"""Independent output checks: closed-form censuses and tabulated-output tests.

Nothing here calls ptspectra. The level census of each family is
recomputed from the paper's closed forms and compared with what a
verification report says; tabulated CSV output is read back from disk and
tested on its own terms. Every check returns a list of problems, empty when
the output is correct.
"""

import math

import numpy as np

# strict admissibility margin, the same 1e-12 the closed forms are stated with
_EDGE = 1e-12
_E_MATCH = 1e-9
LIOUVILLE_TOL = 1e-6
ORACLE_TOL = 1e-10


def eckart_census(A, beta):
    """{(N, sigma, tau): E} for D = A - N - 1 > 0, E = -D^2 + beta^2 / D^2."""
    out = {}
    for N in range(max(0, math.ceil(A)) + 1):
        D = A - N - 1
        if D > _EDGE:
            out[(N, 1, 1)] = -D * D + beta * beta / (D * D)
    return out


def rpt_census(alpha, beta):
    """{(N, sigma, tau): E} for 2N+1 < -sigma*alpha - tau*beta,
    E = -(2N + 1 + sigma*alpha + tau*beta)^2."""
    out = {}
    for sigma in (-1, 1):
        for tau in (-1, 1):
            limit = -sigma * alpha - tau * beta
            for N in range(max(0, math.ceil(limit / 2)) + 1):
                if limit - (2 * N + 1) > _EDGE:
                    out[(N, sigma, tau)] = -((2 * N + 1 + sigma * alpha + tau * beta) ** 2)
    return out


def hulthen_census(alpha, C):
    """{(n, sigma, tau): E} with s = sigma*alpha + 2n + 1, tau*beta = (C - s^2)/(2s),
    kappa = -(s^2 + C)/(2s); a level needs kappa > 0 and tau*beta != 0, and
    then E = kappa^2."""
    out = {}
    n_max = math.ceil((alpha + math.sqrt(abs(C)) + 1) / 2) + 1
    for sigma in (-1, 1):
        for n in range(n_max + 1):
            s = sigma * alpha + 2 * n + 1
            if abs(s) <= _EDGE:
                continue
            kappa = -(s * s + C) / (2 * s)
            tau_beta = (C - s * s) / (2 * s)
            if kappa > _EDGE and abs(tau_beta) > _EDGE:
                out[(n, sigma, 1 if tau_beta > 0 else -1)] = kappa * kappa
    return out


CENSUS = {
    "eckart": lambda v: eckart_census(v[0], v[1]),
    "rpt": lambda v: rpt_census(v[0], v[1]),
    "hulthen": lambda v: hulthen_census(v[0], v[1]),
}


def check_report(family, values, report, require_pass):
    """Compare a VerificationReport with the closed-form census of `values`.

    The report must list exactly the census levels at the census energies,
    every level it marks converged must sit within the report's energy
    tolerance, and with `require_pass` the report must pass as a whole.
    """
    want = CENSUS[family](values)
    got = {(e.N, e.sigma, e.tau): e for e in report.entries}
    problems = []
    if set(got) != set(want):
        problems.append(f"{family} {values}: levels {sorted(got)} != census {sorted(want)}")
    for key in set(got) & set(want):
        entry, E = got[key], want[key]
        if abs(entry.E_analytic - E) > _E_MATCH * max(1.0, abs(E)):
            problems.append(f"{family} {values} {key}: E={entry.E_analytic!r} != {E!r}")
        if entry.converged and not abs(complex(entry.eigenvalue) - E) <= report.tol_energy:
            problems.append(f"{family} {values} {key}: converged but "
                            f"|lambda-E|={abs(complex(entry.eigenvalue) - E):.3e} "
                            f"> tol {report.tol_energy:.1e}")
    if require_pass and not report.passed:
        problems.append(f"{family} {values}: report did not pass")
    return problems


def read_csv(path, header, rows):
    """(problems, table) for a CSV that must have `header` and `rows` finite rows."""
    with open(path) as fh:
        first = fh.readline().strip().split(",")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    problems = []
    if first != header:
        problems.append(f"{path}: header {first} != {header}")
    if table.shape != (rows, len(header)):
        problems.append(f"{path}: shape {table.shape} != {(rows, len(header))}")
    if not np.all(np.isfinite(table)):
        problems.append(f"{path}: non-finite values")
    return problems, table


SAMPLE_HEADER = ["x", "xi_re", "xi_im", "V_re", "V_im", "psi_re", "psi_im"]
TRANSFORM_HEADER = ["x", "xi_re", "xi_im", "V_liouville_re", "V_liouville_im",
                    "V_closed_re", "V_closed_im", "abs_diff"]


def check_sample(path, rows):
    problems, _ = read_csv(path, SAMPLE_HEADER, rows)
    return problems


def check_transform(path, rows):
    problems, table = read_csv(path, TRANSFORM_HEADER, rows)
    if not problems:
        worst = float(np.max(table[:, -1]))
        if not worst <= LIOUVILLE_TOL:
            problems.append(f"{path}: Liouville max |dV| {worst:.3e} > {LIOUVILLE_TOL:.0e}")
    return problems


def check_oracle(pairs, values):
    """Jacobi hypergeometric vs recurrence values, deviation relative to 1+|hyp|."""
    worst = max(abs(h - r) / (1 + abs(h)) for h, r in values)
    if len(values) != len(pairs) or not worst <= ORACLE_TOL:
        return [f"jacobi hyp/rec deviation {worst:.3e} > {ORACLE_TOL:.0e}"]
    return []
