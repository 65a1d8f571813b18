"""Exception taxonomy shared by every module in the package.

Every error deliberately carries enough state to diagnose the failure
without re-running the computation (offending value, achieved residual,
and so on). Callers that aggregate results catch :class:`SpectraError`.
"""


class SpectraError(Exception):
    """Base class for all package errors."""


class InvalidParameters(SpectraError):
    """Parameter record violates a family or contour invariant."""


class PoleInC(SpectraError):
    """A Pochhammer factor (c)_k vanished before series termination."""


class DegenerateRecurrence(SpectraError):
    """Leading three-term recurrence coefficient vanished; the recurrence
    cannot be advanced at this parameter point."""


class SingularPoint(SpectraError):
    """Evaluation requested too close to a potential or map singularity:
    a quantity that a closed form divides by, or a path's or map's
    derivative that the Liouville normal form divides by, is below its
    floor (`contour.nonvanishing`), or a log's argument is exactly 0."""


class OutOfRange(SpectraError):
    """Quantum number outside the family's admissible range."""


class NoConvergence(SpectraError):
    """Inverse iteration found no settled eigenpair: its sweep budget ran
    out, or the measured rate of its residual showed that it would not
    settle within the budget. No eigenpair is returned, `best_residual`
    holds the smallest residual any sweep reached and `iterations` the
    number of sweeps run."""

    def __init__(self, message, best_residual=None, iterations=0):
        super().__init__(message)
        self.best_residual = best_residual
        self.iterations = iterations


class ResolutionLimit(SpectraError):
    """The verify grid cannot resolve a failing level: the grid's ends, its
    step or its rounding floor measurably account for the miss, or the
    level's inverse iteration does not settle, on any grid; the reasons
    are numbered in `numeric._resolution_limit`."""


class ShiftSingular(SpectraError):
    """Inverse iteration's shifted system A - target M was singular at the
    target, or a sweep's solve with it overflowed."""


class InternalConsistencyError(SpectraError):
    """Two closed forms that must agree did not; indicates a bug, not bad
    user input."""


class BoundaryLevelWarning(UserWarning):
    """A level sat within round-off of its admissibility boundary and was
    excluded from the enumeration."""


class DegenerateSWarning(UserWarning):
    """A Hulthen (sigma, n) slot was skipped because s or tau*beta vanished
    within round-off."""
