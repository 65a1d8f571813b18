import numpy as np
import pytest

from ptspectra import jacobi_p_hyp
from ptspectra.spectra import SampledPath

_LINES = []
_FD_STEP = 1e-5
_FD_TOL = 1e-6


@pytest.fixture
def accept_log():
    """Collector for the one-line acceptance verdicts printed at the end."""
    def log(line):
        _LINES.append(line)
    return log


@pytest.fixture
def printed_eckart_wavefunction():
    """`eckart_wavefunction` with the printed Jacobi pair (u/2, v/2) in place
    of (2u, 2v): a wrong closed form, the negative control that the
    residual must reject."""
    def wave(p, level, points):
        u, v = level.aux["u"], level.aux["v"]
        path = points if isinstance(points, SampledPath) else SampledPath(points)
        poly = jacobi_p_hyp(level.qn.N, u / 2, v / 2, path.coth)
        return np.exp((v - u) * path.points - (u + v) * path.log_sinh) * poly
    return wave


@pytest.fixture
def check_jet():
    """`check(jet, t)`: `jet(t)`, after a central finite-difference check of
    its entries 1-3 against entries 0-2, step _FD_STEP, each within _FD_TOL
    relative to 1 + |analytic|. An AssertionError names the derivative,
    r', r'' or r''', that disagrees."""
    def check(jet, t):
        h = _FD_STEP
        plus, minus, at = jet(t + h), jet(t - h), jet(t)
        for k, name in enumerate(("r'", "r''", "r'''")):
            fd = (np.asarray(plus[k]) - np.asarray(minus[k])) / (2 * h)
            an = np.asarray(at[k + 1])
            err = float(np.max(np.abs(fd - an) / (1.0 + np.abs(an))))
            assert err <= _FD_TOL, \
                f"analytic {name} disagrees with finite differences by {err:.3e} relative"
        return at
    return check


def pytest_terminal_summary(terminalreporter):
    if _LINES:
        terminalreporter.section("acceptance checks")
        for line in _LINES:
            terminalreporter.write_line(line)
