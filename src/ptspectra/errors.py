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
    """Evaluation requested too close to a potential or map singularity."""


class DerivativeInconsistency(SpectraError):
    """Analytic map derivatives disagree with their finite-difference
    cross-check beyond tolerance."""


class BranchDiscontinuity(SpectraError):
    """Adjacent path samples force a phase jump larger than pi/2; the
    sampling is too coarse for branch-continuous evaluation."""


class OutOfRange(SpectraError):
    """Quantum number outside the family's admissible range."""


class MetricVanishing(SpectraError):
    """|xi'(x)| fell below floor at a grid node; the Liouville normal form
    of the Numerov pencil would divide by (near) zero."""


class NoConvergence(SpectraError):
    """Inverse iteration found no settled eigenpair within its sweep budget;
    no eigenpair is returned, `best_residual` holds the smallest residual
    any sweep reached and `iterations` the number of sweeps run."""

    def __init__(self, message, best_residual=None, iterations=0):
        super().__init__(message)
        self.best_residual = best_residual
        self.iterations = iterations


class ResolutionLimit(SpectraError):
    """The verify grid cannot resolve a level: on the grid `verify_family`
    sizes, the level needs more grid points than the point cap, or a longer
    range than the one on which its far field stays finite; on any grid,
    its eigenvalue or residual moves across its tolerance when the step is
    halved, or its inverse iteration does not settle. `verify_family` still
    solves the level and reports it with this note, never as a pass."""


class ShiftSingular(SpectraError):
    """Shifted system was numerically singular even after perturbing the
    shift."""


class InternalConsistencyError(SpectraError):
    """Two closed forms that must agree did not; indicates a bug, not bad
    user input."""


class BoundaryLevelWarning(UserWarning):
    """A level sat within round-off of its admissibility boundary and was
    excluded from the enumeration."""


class DegenerateSWarning(UserWarning):
    """A Hulthen (sigma, n) slot was skipped because s or tau*beta vanished
    within round-off."""
