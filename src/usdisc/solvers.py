"""Analytic optimal-measurement constructions and structural checks.

Two exact solution families are implemented. The first covers any pair
whose rank-condition operators are both PSD; there the failure
probability equals the fidelity bound and the conclusive elements have
a closed sandwich formula. The second covers equal-prior involution
symmetric pairs of rank 2 in dimension 4; when the first family does
not apply, the optimum is a projective measurement built from the
kernel-compressed involution. Every emitted solution is gated by an
optimality certificate before it is returned. solve chooses between
the two families and falls back to the interior-point oracle.

solve_first_class and the three steps of solve_gu_4d (preconditions,
regime decision, projective construction) also take a stacked problem
(see problem.UsdProblem): every check and gate then runs on every
instance, the report's numbers become per-instance arrays, and a
failure on any instance fails the stack.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .bounds import FidelityData, fidelity_operators, rank_condition_check
from .certificates import (
    CERT_TOL,
    OptimalityCertificate,
    build_fidelity_certificate,
    fit_certificate,
    symmetric_projective_witness,
    verify_certificate,
)
from .errors import BranchNotApplicable, InvalidInput, NumericalFailure, UsdError
from .linalg import (
    all_true,
    any_true,
    as_double,
    eigh,
    form,
    hermitize,
    item_or_array,
    nonzero_mask,
    outer,
    psd_check,
    spectral_norm,
    support_decomposition,
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

# eigenvalue threshold treated as "equals one" when hunting unit
# eigenvectors of measurement elements (their spectra live in [0, 1])
UNIT_EIG_THRESHOLD = 1.0 - 1e-7

# A stored failure probability must match the one recomputed from the
# stored measurement; a report written by this package matches to rounding.
STORED_Q_TOL = 1e-10


class Branch(Enum):
    FIRST_CLASS_FIDELITY = "FirstClassFidelity"
    GU_PROJECTIVE = "GuProjective"
    ORACLE_ONLY = "OracleOnly"


class HostState(Enum):
    RHO0 = "Rho0"
    RHO1 = "Rho1"


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


def audit_report(p: UsdProblem, report: SolutionReport) -> ValidationReport:
    """Re-check what a stored report claims: the problem, the measurement,
    the stored failure probabilities, the witness and the branch label.

    A FirstClassFidelity label needs both rank-condition operators PSD.
    A GuProjective label needs the symmetric solver's
    preconditions (an equal-prior involution pair of rank-2 states in
    dimension 4) and a projective measurement. OracleOnly claims nothing
    the other checks leave open. A prior outside (0, 1) fails the audit
    and skips the checks that weigh the states by it: the branch label,
    the witness and the stored failure probabilities.
    """
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
        recomputed = failure_probability(p, report.povm)
        for name, stored, value in zip(("q_opt", "q0", "q1"),
                                       (report.q_opt, report.q0, report.q1), recomputed):
            rep.check(f"{name}_stored", abs(stored - value), STORED_Q_TOL)
    return rep


@dataclass(frozen=True)
class GuSolution:
    kernel_operator: np.ndarray
    a: float
    b: float
    phase: float
    x_vector: np.ndarray


@dataclass(frozen=True)
class SplitOffSubspace:
    e_vector: np.ndarray
    e_prime_vector: np.ndarray
    host_state: HostState
    residuals: dict


def _gate_solution(p: UsdProblem, m: Povm, cert: OptimalityCertificate) -> dict:
    """Validate the measurement and its certificate; raise on failure."""
    vrep = validate_povm(p, m)
    if not vrep.ok:
        raise BranchNotApplicable(
            f"constructed measurement failed validation: {vrep.failures}",
            cause="certificate",
        )
    crep = verify_certificate(p, m, cert, CERT_TOL)
    cert.residuals = crep.residuals
    if not crep.ok:
        raise BranchNotApplicable(
            f"certificate conditions violated: {crep.failures}", cause="certificate"
        )
    merged = dict(vrep.residuals)
    merged.update(crep.residuals)
    return merged


def solve_first_class(p: UsdProblem, fd: FidelityData = None) -> SolutionReport:
    """Optimal measurement when the failure probability meets the
    fidelity bound.

    The conclusive elements sandwich the rank-condition operators
    between sqrt(state) and the state-sum pseudo-inverse. With unequal
    priors the operators carry the prior-ratio weight; since that
    extrapolates beyond the equal-prior display, the certificate gate
    is what makes the output trustworthy.
    """
    if fd is None:
        fd = fidelity_operators(p)
    rc = rank_condition_check(p, fd=fd)
    if not all_true(rc.both_psd):
        raise BranchNotApplicable(
            "rank-condition operators are not both PSD "
            f"(min eigenvalues {np.min(rc.op0_min_eig):.3e}, {np.min(rc.op1_min_eig):.3e})",
            cause="rank_conditions",
        )
    r0, r1 = p.rho0.matrix, p.rho1.matrix
    gamma = math.sqrt(p.eta1 / p.eta0)
    s0 = p.rho0.sqrt
    s1 = p.rho1.sqrt
    pinv = p.sum_spectrum.pinv()
    e0 = hermitize(pinv @ s0 @ (r0 - gamma * fd.f0) @ s0 @ pinv)
    e1 = hermitize(pinv @ s1 @ (r1 - fd.f1 / gamma) @ s1 @ pinv)
    eq = hermitize(np.eye(p.dim) - e0 - e1)
    m = Povm(e0=e0, e1=e1, eq=eq)
    q, q0, q1 = failure_probability(p, m)

    cert = build_fidelity_certificate(p, fd)
    diagnostics = _gate_solution(p, m, cert)
    bound = 2.0 * math.sqrt(p.eta0 * p.eta1) * fd.fidelity
    diagnostics["fidelity"] = fd.fidelity
    diagnostics["bound_gap"] = q - bound
    diagnostics["op0_min_eig"] = rc.op0_min_eig
    diagnostics["op1_min_eig"] = rc.op1_min_eig
    return SolutionReport(
        q_opt=q, q0=q0, q1=q1, povm=m,
        branch=Branch.FIRST_CLASS_FIDELITY,
        diagnostics=diagnostics, certificate=cert,
    )


def gu_4d_preconditions(p: UsdProblem):
    """Preconditions of the involution-symmetric 4D solvers, step one of
    solve_gu_4d.

    Returns the involution and its compression onto the kernel of rho1.
    """
    if p.dim != 4:
        raise BranchNotApplicable(
            f"solver covers dimension 4 only, got {p.dim}", cause="dimension"
        )
    if abs(p.eta0 - p.eta1) > 1e-12:
        raise BranchNotApplicable(
            "solver requires equal priors", cause="priors"
        )
    if p.gu_involution is None:
        raise BranchNotApplicable(
            "problem declares no involution", cause="involution_missing"
        )
    gu = verify_gu_structure(p.rho0, p.rho1, p.gu_involution)
    if not gu.ok:
        raise BranchNotApplicable(
            f"involution structure invalid: {gu.failures}",
            cause="involution_invalid",
        )
    ranks = (p.rho0.support.rank, p.rho1.support.rank)
    if ranks != (2, 2):
        raise BranchNotApplicable(f"solver requires rank (2, 2), got {ranks}", cause="rank")
    if p.supports_overlap:
        raise InvalidInput("state supports overlap")
    u = as_double(p.gu_involution)
    k1 = p.rho1.support.kernel_projector
    return u, hermitize(k1 @ u @ k1)


def _signed_kernel_eigs(k: np.ndarray):
    """Nonzero eigenpairs of the kernel-compressed involution, positive first."""
    sys = eigh(k)
    mask = nonzero_mask(sys.eigenvalues, indefinite=True)
    vals = sys.eigenvalues[mask]
    vecs = sys.eigenvectors[:, mask]
    order = np.argsort(-vals)
    return vals[order], vecs[:, order]


def gu_4d_regime(p: UsdProblem, fd: FidelityData = None):
    """Step two of solve_gu_4d: whether the first-class construction
    applies, decided by rho0 - F0 alone (at equal priors the two
    rank-condition operators are U-images of each other).

    Returns (first_class, op0_min_eig, fd), per instance for a stack.
    """
    if fd is None:
        fd = fidelity_operators(p)
    first_class, mn = psd_check(p.rho0.matrix - fd.f0)
    return first_class, mn, fd


def gu_4d_projective(p: UsdProblem, u: np.ndarray, k: np.ndarray, op0_min_eig):
    """Step three of solve_gu_4d: the rank-1 projective measurement
    determined by the signed eigenpair of the kernel-compressed
    involution k, for instances outside the first-class regime.

    Returns (SolutionReport, GuSolution).
    """
    sys = eigh(k)
    w = sys.eigenvalues
    nonzero = nonzero_mask(w, indefinite=True)
    npos = np.count_nonzero(nonzero & (w > 0), axis=-1)
    nneg = np.count_nonzero(nonzero & (w < 0), axis=-1)
    anomalous = np.ravel((npos != 1) | (nneg != 1))
    if any_true(anomalous):
        i = int(np.argmax(anomalous))
        n = w.shape[-1]
        vals = np.reshape(w, (-1, n))[i][np.reshape(nonzero, (-1, n))[i]][::-1]
        raise BranchNotApplicable(
            "kernel-compressed involution should carry one positive and one "
            f"negative eigenvalue, found {np.round(vals, 12).tolist()} "
            f"(min eig of the fidelity-gap operator {np.ravel(op0_min_eig)[i]:.3e})",
            cause="spectrum",
        )
    # the spectrum ascends, so the positive eigenpair is the last and the
    # negative one the first
    a = item_or_array(w[..., -1])
    b = item_or_array(-w[..., 0])
    v0 = sys.eigenvectors[..., :, -1]
    v1 = sys.eigenvectors[..., :, 0]
    r0 = p.rho0.matrix
    cross = form(v0, r0, v1)
    phase = item_or_array(np.where(np.abs(cross) <= 1e-12, 0.0,
                                   np.angle(cross) % (2.0 * math.pi)))
    x = ((np.exp(1j * phase) * np.sqrt(b))[..., None] * v0
         + np.sqrt(a)[..., None] * v1) / np.sqrt(a + b)[..., None]
    e0 = outer(x, x)
    e1 = hermitize(u @ e0 @ u)
    eq = hermitize(np.eye(4) - e0 - e1)
    m = Povm(e0=e0, e1=e1, eq=eq)

    success = form(x, r0, x).real
    # Re(cross e^{-i phase}) in real arithmetic: numpy's array loop for a
    # complex product can round differently from its scalar arithmetic
    turn = np.exp(-1j * phase)
    expanded = (
        b * form(v0, r0, v0).real
        + a * form(v1, r0, v1).real
        + 2.0 * np.sqrt(a * b) * (cross.real * turn.real - cross.imag * turn.imag)
    ) / (a + b)
    gap = np.abs(success - expanded)
    if any_true(gap > 1e-10):
        i = np.argmax(gap)
        raise BranchNotApplicable(
            "success probability cross-check failed: "
            f"{np.ravel(success)[i].item()!r} vs {np.ravel(expanded)[i].item()!r}",
            cause="spectrum",
        )

    q, q0, q1 = failure_probability(p, m)
    cert = fit_certificate(p, m, candidate=symmetric_projective_witness(p, x, u))
    if cert is None:
        raise BranchNotApplicable(
            "no certificate found for the projective construction", cause="certificate"
        )
    vrep = validate_povm(p, m)
    if not vrep.ok:
        raise BranchNotApplicable(
            f"constructed measurement failed validation: {vrep.failures}",
            cause="certificate",
        )
    diagnostics = dict(vrep.residuals)
    diagnostics.update(cert.residuals)
    diagnostics["kernel_eig_pos"] = a
    diagnostics["kernel_eig_neg"] = -b
    diagnostics["op0_min_eig"] = op0_min_eig
    diagnostics["success_crosscheck_gap"] = item_or_array(success - expanded)
    report = SolutionReport(
        q_opt=q, q0=q0, q1=q1, povm=m,
        branch=Branch.GU_PROJECTIVE,
        diagnostics=diagnostics, certificate=cert,
    )
    solution = GuSolution(
        kernel_operator=k, a=a, b=b, phase=phase, x_vector=x
    )
    return report, solution


def solve_gu_4d(p: UsdProblem):
    """Optimal measurement for equal-prior involution pairs of rank 2
    in dimension 4.

    Returns (SolutionReport, GuSolution or None). When the fidelity
    bound is attainable (rho0 - F0 is PSD) the first-class construction
    is used and no GuSolution is produced. Otherwise the optimum is the
    rank-1 projective measurement determined by the signed eigenpair of
    the kernel-compressed involution. Every instance of a stack must
    fall on the same side.
    """
    return _gu_4d_steps(p, *gu_4d_preconditions(p))


def _gu_4d_steps(p: UsdProblem, u: np.ndarray, k: np.ndarray):
    # steps two and three of solve_gu_4d, once its preconditions hold
    first_class, mn, fd = gu_4d_regime(p)
    if all_true(first_class):
        return solve_first_class(p, fd=fd), None
    if any_true(first_class):
        raise BranchNotApplicable(
            "stack mixes first-class and projective instances", cause="regime"
        )
    return gu_4d_projective(p, u, k, mn)


def solve(p: UsdProblem) -> SolutionReport:
    """Optimal measurement for one problem, from the first branch that
    applies; the only place that chooses a branch.

    A problem inside the symmetric solver's scope (gu_4d_preconditions)
    goes to solve_gu_4d, which runs the first-class checks itself; any
    other problem goes to solve_first_class. A branch that does not
    apply or fails numerically hands over to the interior-point oracle,
    whose dual Z is the witness; the closed forms are tried only if it
    fails.
    """
    try:
        gu = gu_4d_preconditions(p)
    except BranchNotApplicable:
        gu = None
    try:
        if gu is None:
            return solve_first_class(p)
        return _gu_4d_steps(p, *gu)[0]
    except (BranchNotApplicable, NumericalFailure):
        pass
    result = oracle_optimize(p)
    q, q0, q1 = failure_probability(p, result.povm)
    diagnostics = {
        "oracle_iterations": float(result.iterations),
        "oracle_converged": float(result.converged),
        "oracle_duality_gap": result.duality_gap,
    }
    return SolutionReport(
        q_opt=q, q0=q0, q1=q1,
        povm=result.povm,
        branch=Branch.ORACLE_ONLY,
        diagnostics=diagnostics,
        certificate=fit_certificate(p, result.povm, candidate=result.certificate.z),
    )


def gu_kernel_spectrum(p: UsdProblem) -> np.ndarray:
    """Nonzero eigenvalues of the kernel-compressed involution, sorted
    descending so the expected sign pattern reads (positive, negative)."""
    vals, _ = _signed_kernel_eigs(gu_4d_preconditions(p)[1])
    return vals


def spectrum_negation_check(p: UsdProblem, tol: float = 1e-9) -> bool:
    """Whether the support and kernel compressions of the involution
    carry spectra that are negatives of each other."""
    if p.gu_involution is None:
        raise BranchNotApplicable(
            "problem declares no involution", cause="involution_missing"
        )
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
    return bool(np.all(np.abs(s_in + s_out[::-1]) <= tol))


def projectivity_check(m: Povm, tol: float = 1e-9) -> ValidationReport:
    """Idempotence of all three elements, conclusive-element
    orthogonality, and the rank-2 inconclusive element."""
    rep = ValidationReport()
    elements = np.array([m.e0, m.e1, m.eq])
    norms = unstack(spectral_norm(elements @ elements - elements))
    for name, norm in zip(("e0", "e1", "eq"), norms):
        rep.check(f"{name}_idempotent", norm, tol)
    rep.check("e0_e1_orthogonal", abs(np.trace(m.e0 @ m.e1).real), tol)
    rank = support_decomposition(hermitize(m.eq)).rank
    rep.residuals["eq_rank"] = float(rank)
    if rank != 2:
        rep.failures.append("eq_rank")
    return rep


def _unit_eigenspace(a: np.ndarray) -> np.ndarray:
    sys = eigh(a)
    return sys.eigenvectors[:, sys.eigenvalues >= UNIT_EIG_THRESHOLD]


def _best_in_subspace(cols: np.ndarray, proj: np.ndarray):
    """Unit vector in span(cols) with maximal projection onto proj's range."""
    if cols.shape[1] == 0:
        return None, 0.0
    gram = hermitize(cols.conj().T @ proj @ cols)
    w, v = np.linalg.eigh(gram)
    vec = cols @ v[:, -1]
    vec = vec / np.linalg.norm(vec)
    return vec, math.sqrt(max(0.0, float(w[-1])))


def split_off_extraction(p: UsdProblem, m: Povm, tol: float = 1e-7):
    """Locate the two-dimensional subspace that an optimal measurement
    splits off when the rank conditions fail.

    The inconclusive element must fix a vector inside one state's
    support while the opposite conclusive element fixes a partner in
    that state's kernel. Returns the first verified pair or None; the
    measurement is assumed optimal for the problem.
    """
    rc = rank_condition_check(p)
    if rc.both_psd:
        return None
    eq_unit = _unit_eigenspace(m.eq)
    if eq_unit.shape[1] == 0:
        return None
    for host, partner in ((HostState.RHO0, m.e1), (HostState.RHO1, m.e0)):
        dec = (p.rho0 if host is HostState.RHO0 else p.rho1).support
        e_vec, e_proj = _best_in_subspace(eq_unit, dec.support_projector)
        if e_vec is None or e_proj < 1.0 - tol:
            continue
        partner_unit = _unit_eigenspace(partner)
        ep_vec, ep_proj = _best_in_subspace(partner_unit, dec.kernel_projector)
        if ep_vec is None or ep_proj < 1.0 - tol:
            continue
        residuals = {
            "support_projection": 1.0 - e_proj,
            "kernel_projection": 1.0 - ep_proj,
            "orthogonality": abs(complex(e_vec.conj() @ ep_vec)),
            "eq_fixes_e": float(np.linalg.norm(m.eq @ e_vec - e_vec)),
            "partner_fixes_e_prime": float(np.linalg.norm(partner @ ep_vec - ep_vec)),
        }
        if residuals["orthogonality"] > 1e-9:
            continue
        if residuals["eq_fixes_e"] > 1e-8 or residuals["partner_fixes_e_prime"] > 1e-8:
            continue
        return SplitOffSubspace(
            e_vector=e_vec,
            e_prime_vector=ep_vec,
            host_state=host,
            residuals=residuals,
        )
    return None
