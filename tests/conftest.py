import numpy as np
import pytest

from ptspectra import jacobi_p_hyp
from ptspectra.spectra import SampledPath

_LINES = []


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


def pytest_terminal_summary(terminalreporter):
    if _LINES:
        terminalreporter.section("acceptance checks")
        for line in _LINES:
            terminalreporter.write_line(line)
