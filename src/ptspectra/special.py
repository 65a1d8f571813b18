"""Complex-parameter special functions.

The terminating Gauss hypergeometric sum and Jacobi polynomials
evaluated two independent ways (hypergeometric representation and
three-term recurrence). Only the terminating branch of 2F1 is ever
needed here, so it is summed directly; no analytic continuation exists in
this module.

Each function has one body whose working dtype follows its inputs: scalar
calls accumulate in extended precision (np.clongdouble) and return
ordinary complex; once any argument is an array the same body runs
vectorized in complex128, which is plenty for wave-function sampling.
The 1e-10 cross-oracle comparisons all go through scalar calls.
"""

import numpy as np

from .errors import DegenerateRecurrence, PoleInC

# pole / degeneracy guard on denominators and leading coefficients
_COEFF_FLOOR = 1e-13


def _working(*vals):
    """The inputs in one working dtype, then 1 broadcast to their shape.

    The dtype is np.clongdouble when every input is a scalar, so scalar
    calls accumulate in extended precision (as numpy scalars, which keeps
    their arithmetic off the slower 0-d array path); complex128 once any
    input is an array.
    """
    arrs = [np.asarray(v) for v in vals]
    dt = np.clongdouble if all(x.ndim == 0 for x in arrs) else complex
    arrs = [x.astype(dt) for x in arrs]
    return [x[()] for x in arrs + [np.ones(np.broadcast(*arrs).shape, dtype=dt)]]


def _finish(value):
    """Ordinary complex for a scalar result, the complex128 array otherwise."""
    return value if isinstance(value, np.ndarray) else complex(value)


def gauss2f1_terminating(N: int, b, c, z):
    """Terminating Gauss series sum_{k=0}^{N} (-N)_k (b)_k / ((c)_k k!) z^k.

    Exact termination after N+1 terms. Raises PoleInC when some (c)_k
    vanishes before the series terminates, i.e. c+k = 0 for 0 <= k <= N-1.
    """
    if N < 0:
        raise ValueError("N must be a non-negative integer")
    # gap[k] = |c + k|, for every entry of c at once
    gap = np.abs(np.add.outer(np.arange(N), np.asarray(c, dtype=complex)))
    if gap.min(initial=np.inf) < _COEFF_FLOOR:
        k = int(np.argwhere(gap < _COEFF_FLOOR)[0][0])
        raise PoleInC(f"(c)_k vanishes at k={k + 1} before termination at N={N}")
    b, c, z, total = _working(b, c, z)
    term = total
    for k in range(N):
        term = term * ((-N + k) * (b + k)) / ((c + k) * (k + 1)) * z
        total = total + term
    return _finish(total)


def jacobi_p_hyp(n: int, a, b, y):
    """Jacobi polynomial P_n^{(a,b)}(y) via the hypergeometric representation.

    P_n^{(a,b)}(y) = ((a+1)_n / n!) 2F1(-n, n+a+b+1; a+1; (1-y)/2),
    valid for fully complex parameters and argument. Near y = -1 the
    argument (1-y)/2 is near 1 and the terms cancel, so a scalar y with
    Re y < 0 is evaluated as (-1)^n P_n^{(b,a)}(-y), whose argument (1+y)/2
    is the smaller; where that series hits a pole (b+1 a non-positive
    integer), the form above is used. PoleInC propagates from the kernel when a+1 is
    a non-positive integer hit by the series. The prefactor accumulates in
    the working precision; 2F1 receives its arguments rounded to
    complex128.
    """
    if n < 0:
        raise ValueError("n must be a non-negative integer")
    if np.ndim(y) == 0 and np.real(y) < 0:
        try:
            return (-1) ** n * _jacobi_hyp(n, b, a, -y)
        except PoleInC:
            pass
    return _jacobi_hyp(n, a, b, y)


def _jacobi_hyp(n, a, b, y):
    a, b, y, pref = _working(a, b, y)
    for j in range(n):
        pref = pref * (a + 1 + j) / (j + 1)
    f = gauss2f1_terminating(n, *(np.asarray(v, dtype=complex)[()]
                                  for v in (n + a + b + 1, a + 1, (1 - y) / 2)))
    return _finish(pref * f)


def jacobi_p_rec(n: int, a, b, y):
    """Jacobi polynomial via the standard three-term recurrence in degree.

    Independent of jacobi_p_hyp (no shared kernel): seeds P_0 = 1 and the
    degree-1 closed form, then advances
        c1 P_m = c2 P_{m-1} - c3 P_{m-2},
        c1 = 2m (m+a+b) (2m+a+b-2),
        c2 = (2m+a+b-1) [ (2m+a+b)(2m+a+b-2) y + a^2 - b^2 ],
        c3 = 2 (m+a-1) (m+b-1) (2m+a+b).
    Raises DegenerateRecurrence when c1 vanishes (complex parameters can
    zero it); nothing is skipped silently.
    """
    if n < 0:
        raise ValueError("n must be a non-negative integer")
    av, bv, yv, p_prev = _working(a, b, y)
    if n == 0:
        return _finish(p_prev)
    p_cur = ((av - bv) + (av + bv + 2) * yv) / 2
    for m in range(2, n + 1):
        s = 2 * m + av + bv
        c1 = 2 * m * (m + av + bv) * (s - 2)
        if abs(complex(c1)) < _COEFF_FLOOR:
            raise DegenerateRecurrence(
                f"leading coefficient vanishes at degree {m} for a={complex(av)}, b={complex(bv)}"
            )
        c2 = (s - 1) * (s * (s - 2) * yv + av * av - bv * bv)
        c3 = 2 * (m + av - 1) * (m + bv - 1) * s
        p_prev, p_cur = p_cur, (c2 * p_cur - c3 * p_prev) / c1
    return _finish(p_cur)
