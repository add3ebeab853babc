"""Analytic optimal-measurement constructions and structural checks.

Two exact solution families are implemented. The first covers any pair
whose rank-condition operators are both PSD; there the failure
probability equals the fidelity bound and the conclusive elements have
a closed sandwich formula. The second covers equal-prior involution
symmetric pairs of rank 2 in dimension 4; when the first family does
not apply, the optimum is a projective measurement built from the
kernel-compressed involution. solve is one router (_construct, the only
function that chooses between the two families) and one gate (_gate, by
certificates.fit_certificate), with the interior-point oracle as the
fallback.

solve also takes a stacked problem (see problem.UsdProblem): it routes
instance by instance, gates the stack once and, if that fails, solves
it row by row. So do solve_first_class and gu_4d_preconditions, except
that a failure on any instance fails the stack.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .bounds import rank_condition_check
from .certificates import (
    OptimalityCertificate,
    fidelity_witness,
    fit_certificate,
    symmetric_projective_witness,
    verify_certificate,
)
from .errors import BranchNotApplicable, InvalidInput, NumericalFailure, UsdError
from .linalg import (
    all_true,
    any_true,
    as_double,
    dagger,
    eigh,
    form,
    hermitize,
    item_or_array,
    nonzero_mask,
    outer,
    spectral_norm,
    trace,
    unstack,
)
from .oracle import oracle_optimize
from .problem import (
    Povm,
    UsdProblem,
    ValidationReport,
    failure_probability,
    validate_povm,
    validate_problem,
    verify_gu_structure,
)

# A stored failure probability must match the one recomputed from the
# stored measurement; a report written by this package matches to rounding.
STORED_Q_TOL = 1e-10

# Residual bound of each projectivity_check condition.
PROJECTIVE_TOL = 1e-9

# The diagnostics of an oracle report, its run record; no recomputation
# checks them, and no other report stores any.
ORACLE_DIAGNOSTICS = ("oracle_iterations", "oracle_converged", "oracle_duality_gap")


class Branch(Enum):
    FIRST_CLASS_FIDELITY = "FirstClassFidelity"
    GU_PROJECTIVE = "GuProjective"
    ORACLE_ONLY = "OracleOnly"


@dataclass
class SolutionReport:
    q_opt: float
    q0: float
    q1: float
    povm: Povm
    branch: Branch
    diagnostics: dict = field(default_factory=dict)
    certificate: Optional[OptimalityCertificate] = None


def _branch_holds(p: UsdProblem, report: SolutionReport) -> bool:
    try:
        if report.branch is Branch.FIRST_CLASS_FIDELITY:
            return rank_condition_check(p).both_psd
        if report.branch is Branch.GU_PROJECTIVE:
            gu_4d_preconditions(p)
            return projectivity_check(report.povm).ok
    except UsdError:
        # the problem fails the branch's preconditions
        return False
    return True


# a report's matrices may overflow the products of its checks, which then fail
@np.errstate(over="ignore", invalid="ignore")
def audit_report(p: UsdProblem, report: SolutionReport) -> ValidationReport:
    """Re-check what a stored report of one problem claims: the problem,
    the measurement, the stored failure probabilities, the witness and
    the branch label.

    A FirstClassFidelity label needs both rank-condition operators PSD.
    A GuProjective label needs the symmetric solver's preconditions (an
    equal-prior involution pair of rank-2 states in dimension 4) and a
    projective measurement. OracleOnly claims nothing the other checks
    leave open. A prior outside (0, 1) fails the audit and skips the
    checks that weigh the states by it: the branch label, the witness and
    the stored failure probabilities.
    """
    if p.rho0.matrix.ndim > 2:
        raise InvalidInput("audit_report takes one problem, not a stack")
    rep = validate_problem(p)
    # undefined for a prior out of range: a zero or negative one breaks
    # the prior ratio, an infinite or NaN one the eigensolvers
    weighable = not {"eta0_in_open_interval", "eta1_in_open_interval"} & set(rep.failures)
    if weighable:
        rep.check("branch_label", 0.0 if _branch_holds(p, report) else 1.0, 0.0)
    parts = [validate_povm(p, report.povm)]
    if report.certificate is None:
        rep.failures.append("certificate_missing")
    elif weighable:
        parts.append(verify_certificate(p, report.povm, report.certificate))
    for part in parts:
        rep.residuals.update(part.residuals)
        rep.failures.extend(part.failures)
    if weighable:
        for name, value in zip(("q_opt", "q0", "q1"), failure_probability(p, report.povm)):
            rep.check(f"{name}_stored", abs(getattr(report, name) - value), STORED_Q_TOL)
    return rep


def _gate(p: UsdProblem, report: SolutionReport) -> SolutionReport:
    """A constructed report, its closed-form Z unverified, once
    fit_certificate passes its measurement with Z alone, a branch per row
    for a stack; BranchNotApplicable (cause "certificate") on a miss."""
    report.certificate = fit_certificate(p, report.povm, candidate=report.certificate.z)
    if report.certificate is None:
        raise BranchNotApplicable("closed-form witness fails verification", cause="certificate")
    if p.rho0.matrix.ndim > 2 and isinstance(report.branch, Branch):
        report.branch = (report.branch,) * len(p.rho0.matrix)
    return report


def _construct_first_class(p: UsdProblem) -> SolutionReport:
    """solve_first_class's report, ungated."""
    fd = p.fidelity_pair
    rc = rank_condition_check(p)
    if not all_true(rc.both_psd):
        raise BranchNotApplicable(
            "rank-condition operators are not both PSD "
            f"(min eigenvalues {np.min(rc.op0_min_eig):.3e}, {np.min(rc.op1_min_eig):.3e})",
            cause="rank_conditions",
        )
    # sqrt(rho) (rho - gamma F) sqrt(rho) = X G X^H, on each state's support
    # factor X and its rank-condition operator G in support coordinates
    m0, m1 = (p.sum_spectrum.pinv_times(state.factor) for state in (p.rho0, p.rho1))
    r0, r1 = p.rho0.support.rank, p.rho1.support.rank
    e0 = hermitize(m0 @ fd.rank_operators[0, ..., :r0, :r0] @ dagger(m0))
    e1 = hermitize(m1 @ fd.rank_operators[1, ..., :r1, :r1] @ dagger(m1))
    m = Povm(e0=e0, e1=e1, eq=hermitize(np.eye(p.dim) - e0 - e1))
    return SolutionReport(*failure_probability(p, m), m, Branch.FIRST_CLASS_FIDELITY,
                          certificate=OptimalityCertificate(fidelity_witness(p)))


def solve_first_class(p: UsdProblem) -> SolutionReport:
    """Optimal measurement when the failure probability meets the
    fidelity bound.

    The conclusive elements sandwich the rank-condition operators
    between sqrt(state) and the state-sum pseudo-inverse. With unequal
    priors the operators carry the prior-ratio weight; since that
    extrapolates beyond the equal-prior display, the certificate gate
    is what makes the output trustworthy.
    """
    return _gate(p, _construct_first_class(p.decompose()))


def gu_4d_preconditions(p: UsdProblem) -> None:
    """Scope of the symmetric 4D construction: an equal-prior involution
    pair of rank-2 states in dimension 4; raises outside it."""
    if p.dim != 4:
        raise BranchNotApplicable(f"solver covers dimension 4 only, got {p.dim}",
                                  cause="dimension")
    if abs(p.eta0 - p.eta1) > 1e-12:
        raise BranchNotApplicable("solver requires equal priors", cause="priors")
    if p.gu_involution is None:
        raise BranchNotApplicable("problem declares no involution", cause="involution_missing")
    gu = verify_gu_structure(p.rho0, p.rho1, p.gu_involution)
    if not gu.ok:
        raise BranchNotApplicable(f"involution structure invalid: {gu.failures}",
                                  cause="involution_invalid")
    ranks = (p.rho0.support.rank, p.rho1.support.rank)
    if ranks != (2, 2):
        raise BranchNotApplicable(f"solver requires rank (2, 2), got {ranks}", cause="rank")
    if p.supports_overlap:
        raise InvalidInput("state supports overlap")


def _kernel_involution(p: UsdProblem) -> np.ndarray:
    """The involution compressed onto the kernel of rho1, K1 U K1."""
    k1 = p.rho1.support.kernel_projector
    return hermitize(k1 @ as_double(p.gu_involution) @ k1)


def _construct_projective(p: UsdProblem) -> SolutionReport:
    """The rank-1 projective measurement determined by the signed
    eigenpair of the kernel-compressed involution, for a problem inside
    the symmetric solver's scope and outside the first-class regime; ungated."""
    sys = eigh(_kernel_involution(p))
    w = sys.eigenvalues
    nonzero = nonzero_mask(w, indefinite=True)
    npos = np.count_nonzero(nonzero & (w > 0), axis=-1)
    nneg = np.count_nonzero(nonzero & (w < 0), axis=-1)
    anomalous = np.ravel((npos != 1) | (nneg != 1))
    if any_true(anomalous):
        i = int(np.argmax(anomalous))
        vals = w.reshape(-1, 4)[i][nonzero.reshape(-1, 4)[i]][::-1]
        raise BranchNotApplicable(
            "kernel-compressed involution should carry one positive and one "
            f"negative eigenvalue, found {np.round(vals, 12).tolist()} "
            f"(min eig of the fidelity-gap operator {np.ravel(rank_condition_check(p).op0_min_eig)[i]:.3e})",
            cause="spectrum",
        )
    # the spectrum ascends, so the positive eigenpair is the last and the
    # negative one the first
    a = item_or_array(w[..., -1])
    b = item_or_array(-w[..., 0])
    v0 = sys.eigenvectors[..., :, -1]
    v1 = sys.eigenvectors[..., :, 0]
    cross = form(v0, p.rho0.matrix, v1)
    phase = np.where(np.abs(cross) <= 1e-12, 0.0, np.angle(cross) % (2.0 * math.pi))
    # e^{i phase}; a real problem's phase is 0 or pi, so that is a sign
    spin = np.exp(1j * phase) if np.iscomplexobj(cross) else np.where(phase == 0.0, 1.0, -1.0)
    x = ((spin * np.sqrt(b))[..., None] * v0
         + np.sqrt(a)[..., None] * v1) / np.sqrt(a + b)[..., None]
    u = as_double(p.gu_involution)
    e0 = outer(x, x)
    e1 = hermitize(u @ e0 @ u)
    m = Povm(e0=e0, e1=e1, eq=hermitize(np.eye(4) - e0 - e1))
    return SolutionReport(*failure_probability(p, m), m, Branch.GU_PROJECTIVE,
                          certificate=OptimalityCertificate(symmetric_projective_witness(p, x, u)))


def _consecutive(mask: np.ndarray):
    # the flagged rows of a stack, as a slice (so take gives views) when consecutive
    rows = np.flatnonzero(mask)
    if rows[-1] - rows[0] + 1 == rows.size:
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


def _joined(p: UsdProblem, parts) -> SolutionReport:
    """The report of the stack p from (rows, report) parts that cover it."""
    n, d = len(p.rho0.matrix), p.dim
    certified = all(rep.certificate is not None for _, rep in parts)
    fields = [(rep.q_opt, rep.q0, rep.q1, rep.povm.e0, rep.povm.e1, rep.povm.eq,
               rep.certificate.z if certified else 0.0) for _, rep in parts]
    numbers, branch = np.empty((3, n)), np.empty(n, object)
    # four arrays, not one block of all four: smaller chunks keep a long run's heap from growing
    dtype = np.result_type(*(a for f in fields for a in f[3:]))
    elements = [np.empty((n, d, d), dtype) for _ in range(4)]
    for (rows, rep), values in zip(parts, fields):
        for out, value in zip((*numbers, *elements), values):
            out[rows] = value
        branch[rows] = rep.branch
    z = elements[3]
    return SolutionReport(
        *numbers, povm=Povm(*elements[:3]), branch=tuple(branch.tolist()),
        certificate=OptimalityCertificate(z, success_trace=trace(z).real) if certified else None,
    )


def _construct(p: UsdProblem) -> SolutionReport:
    """The ungated report of the construction that applies, the only
    function that names both: inside gu_4d_preconditions' scope, the
    first-class one where rank_condition_check passes both operators and
    the projective one elsewhere, each side of a split stack built on its
    rows (a view when consecutive); else the first-class one."""
    try:
        gu_4d_preconditions(p)
    except BranchNotApplicable:
        return _construct_first_class(p)
    first_class = rank_condition_check(p).both_psd
    if all_true(first_class):
        return _construct_first_class(p)
    if not any_true(first_class):
        return _construct_projective(p)
    fc, pr = _consecutive(first_class), _consecutive(~first_class)
    return _joined(p, [(fc, _construct_first_class(p.take(fc))),
                       (pr, _construct_projective(p.take(pr)))])


def solve(p: UsdProblem) -> SolutionReport:
    """Optimal measurement for a problem, or for each instance of a stack,
    from the construction that applies (_construct), gated once, or from
    the oracle, whose dual Z is the witness (a closed form if it fails).

    A stack that fails its gate is solved row by row, so each instance
    gets the bits, and the fallback, of a solve of it alone. A stack's
    report holds per-instance q_opt, q0, q1, the (N, d, d) measurement and
    witness Z (no certificate if a row has none) and the tuple of the
    rows' branches. Only an oracle report carries diagnostics: its run
    record, which nothing recomputes.
    """
    try:
        return _gate(p, _construct(p.decompose()))
    except (BranchNotApplicable, NumericalFailure):
        if p.rho0.matrix.ndim > 2:
            return _joined(p, [([i], solve(p.take(i))) for i in range(len(p.rho0.matrix))])
    result = oracle_optimize(p)
    return SolutionReport(
        *failure_probability(p, result.povm), result.povm, Branch.ORACLE_ONLY,
        dict(zip(ORACLE_DIAGNOSTICS, (float(result.iterations), float(result.converged),
                                      result.duality_gap))),
        fit_certificate(p, result.povm, candidate=result.certificate.z)
        or fit_certificate(p, result.povm),
    )


def gu_kernel_spectrum(p: UsdProblem) -> np.ndarray:
    """Nonzero eigenvalues of the kernel-compressed involution, sorted
    descending so the expected sign pattern reads (positive, negative)."""
    gu_4d_preconditions(p)
    w = eigh(_kernel_involution(p)).eigenvalues
    return w[nonzero_mask(w, indefinite=True)][::-1]


def spectrum_negation_check(p: UsdProblem) -> bool:
    """Whether the support and kernel compressions of the involution
    carry spectra that are negatives of each other."""
    if p.gu_involution is None:
        raise BranchNotApplicable("problem declares no involution", cause="involution_missing")
    u = as_double(p.gu_involution)
    d0 = p.rho0.support
    inside = np.linalg.eigvalsh(hermitize(d0.support_projector @ u @ d0.support_projector))
    outside = np.linalg.eigvalsh(hermitize(d0.kernel_projector @ u @ d0.kernel_projector))
    # one cutoff for both spectra, relative to the larger of the two
    keep = nonzero_mask(np.concatenate([inside, outside]), indefinite=True)
    s_in = np.sort(inside[keep[:inside.size]])
    s_out = np.sort(outside[keep[inside.size:]])
    if s_in.size != s_out.size:
        return False
    return bool(np.all(np.abs(s_in + s_out[::-1]) <= 1e-9))


def projectivity_check(m: Povm) -> ValidationReport:
    """Idempotence of all three elements, conclusive-element
    orthogonality, and the rank-2 inconclusive element."""
    rep = ValidationReport()
    elements = np.array([m.e0, m.e1, m.eq])
    norms = unstack(spectral_norm(elements @ elements - elements))
    for name, norm in zip(("e0", "e1", "eq"), norms):
        rep.check(f"{name}_idempotent", norm, PROJECTIVE_TOL)
    rep.check("e0_e1_orthogonal", abs(trace(m.e0 @ m.e1).real), PROJECTIVE_TOL)
    rank = eigh(hermitize(m.eq)).rank()
    rep.residuals["eq_rank"] = float(rank)
    if rank != 2:
        rep.failures.append("eq_rank")
    return rep

