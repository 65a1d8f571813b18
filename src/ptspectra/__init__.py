"""Closed-form spectra of complex-contour Hamiltonians and their
finite-difference verification.

Three potential families (Eckart, Poschl-Teller, Hulthen) continued
along symmetric complex paths, with exact level formulas, eigenfunction
construction, a Liouville change of variables, and an independent
banded eigensolver for cross-checking.
"""

from .contour import (
    ArchContour,
    ShiftedLine,
    Stretched,
    arch_map,
    continuous_log,
    liouville_potential,
    power_along_path,
    transport_wavefunction,
)
from .errors import (
    BoundaryLevelWarning,
    DegenerateRecurrence,
    DegenerateSWarning,
    InternalConsistencyError,
    InvalidParameters,
    NoConvergence,
    OutOfRange,
    PoleInC,
    ResolutionLimit,
    ShiftSingular,
    SingularPoint,
    SpectraError,
)
from .numeric import (
    DiscretizedHamiltonian,
    EigenResult,
    Grid,
    LevelRecord,
    VerificationReport,
    build_hamiltonian,
    residual,
    solve_targeted,
    verify_family,
)
from .potentials import (
    EckartParams,
    HulthenParams,
    PoschlTellerParams,
    eval_eckart,
    eval_hulthen,
    eval_rpt,
    pt_defect,
)
from .special import (
    gauss2f1_terminating,
    jacobi_p_hyp,
    jacobi_p_rec,
)
from .spectra import (
    Level,
    QuantumNumbers,
    SampledPath,
    eckart_spacing,
    eckart_spectrum,
    eckart_wavefunction,
    hulthen_spectrum,
    hulthen_wavefunction,
    rpt_real_energy_condition,
    rpt_spectrum,
    rpt_wavefunction,
)

__version__ = "0.1.0"

__all__ = [
    "ArchContour",
    "BoundaryLevelWarning",
    "DegenerateRecurrence",
    "DegenerateSWarning",
    "DiscretizedHamiltonian",
    "EckartParams",
    "EigenResult",
    "Grid",
    "HulthenParams",
    "InternalConsistencyError",
    "InvalidParameters",
    "Level",
    "LevelRecord",
    "NoConvergence",
    "OutOfRange",
    "PoleInC",
    "PoschlTellerParams",
    "QuantumNumbers",
    "ResolutionLimit",
    "SampledPath",
    "ShiftSingular",
    "ShiftedLine",
    "SingularPoint",
    "SpectraError",
    "Stretched",
    "VerificationReport",
    "arch_map",
    "build_hamiltonian",
    "continuous_log",
    "eckart_spacing",
    "eckart_spectrum",
    "eckart_wavefunction",
    "eval_eckart",
    "eval_hulthen",
    "eval_rpt",
    "gauss2f1_terminating",
    "hulthen_spectrum",
    "hulthen_wavefunction",
    "jacobi_p_hyp",
    "jacobi_p_rec",
    "liouville_potential",
    "power_along_path",
    "pt_defect",
    "residual",
    "rpt_real_energy_condition",
    "rpt_spectrum",
    "rpt_wavefunction",
    "solve_targeted",
    "transport_wavefunction",
    "verify_family",
]
