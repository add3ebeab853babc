"""Optimal unambiguous discrimination of two mixed quantum states.

Analytic measurement constructions for the two known exact solution
families, optimality certificates to gate them, an interior-point
oracle that solves the discrimination SDP to cross-check them, and the
weak-coherent-pulse application curves, all behind a small CLI.
"""

from .bb84 import (
    Bb84States,
    Bb84SweepRow,
    basis_problem,
    bit_problem,
    bit_spectrum_closed_form,
    build_states,
    coefficients,
    find_mu0,
    locate_threshold,
    q_basis_closed_form,
    sweep,
    sweep_csv,
)
from .bounds import (
    FidelityData,
    RankConditionReport,
    failure_lower_bound,
    fidelity_operators,
    rank_condition_check,
    tighter_q0_bound,
)
from .certificates import (
    OptimalityCertificate,
    fidelity_witness,
    fit_certificate,
    verify_certificate,
)
from .errors import BranchNotApplicable, InvalidInput, NumericalFailure, UsdError
from .linalg import (
    PSD_TOL,
    REL_CUTOFF,
    EigenSystem,
    SupportDecomposition,
    eigh,
    hermitize,
    psd_check,
    require_hermitian,
    sqrt_psd,
)
from .oracle import OracleResult, oracle_optimize
from .problem import (
    DensityMatrix,
    Povm,
    UsdProblem,
    ValidationReport,
    failure_probability,
    validate_povm,
    validate_problem,
    verify_gu_structure,
)
from .solvers import (
    Branch,
    SolutionReport,
    audit_report,
    gu_4d_preconditions,
    gu_kernel_spectrum,
    projectivity_check,
    solve,
    solve_first_class,
    spectrum_negation_check,
)

__version__ = "0.1.0"
