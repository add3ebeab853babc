"""Domain types for two-state discrimination instances and measurements.

A problem is a pair of density matrices with prior probabilities, plus
an optional involution relating them. A measurement is the three-element
decomposition (conclusive for state 0, conclusive for state 1,
inconclusive). Validation is report based and never throws so the
command line can surface every violation at once.

A problem may also hold a stack of same-shape instances along leading
axes, sharing one pair of priors and one involution (see UsdProblem).
validate_problem, validate_povm, projectivity_check, failure_probability
and verify_gu_structure check or evaluate every instance of such a
stack. UsdProblem.decompose takes the spectra of rho0, rho1 and
rho0 + rho1 in one stacked call, and validate_problem and solve start
with it. UsdProblem.take selects instances; the sub-stack keeps the row
slices of every decomposition the stack has cached (the fidelity pair
too), so it decomposes nothing again.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InvalidInput
from .linalg import (
    HERM_TOL,
    PSD_TOL,
    EigenSystem,
    SupportDecomposition,
    all_true,
    as_double,
    at_least,
    dagger,
    eigh,
    eigvalsh,
    gram_norm,
    hermitian_skew,
    hermitize,
    max_abs,
    negativity_bound,
    psd_check,
    require_hermitian,
    shared_rank,
    trace,
    unstack,
)

TRACE_TOL = 1e-10
PRIOR_TOL = 1e-12
COMPLETENESS_TOL = 1e-9
ERROR_FREE_TOL = 1e-9
INVOLUTION_TOL = 1e-9
PROJECTIVE_TOL = 1e-9  # each projectivity_check residual's bound


@dataclass(frozen=True)
class DensityMatrix:
    """A unit-trace state, or a stack of them along leading axes. Its
    eigendecomposition is taken once, on first use, and every spectral
    quantity of the state is derived from it; the matrix must therefore
    never be modified in place."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @cached_property
    def spectrum(self) -> EigenSystem:
        return eigh(self.matrix)

    @cached_property
    def support(self) -> SupportDecomposition:
        """Support and kernel projectors at the package's rank cutoff."""
        return self.spectrum.support()

    @cached_property
    def factor(self) -> np.ndarray:
        """The support columns B scaled by the square roots of their
        eigenvalues Lambda: the d x r factor X = B sqrt(Lambda) with
        rho = X X^H up to the rank cutoff, r the rank. It raises for a
        state that is not PSD."""
        sys = self.spectrum
        sys.require_psd()
        k = self.dim - self.support.rank
        return sys.eigenvectors[..., k:] * np.sqrt(sys.eigenvalues[..., None, k:])

    @staticmethod
    def from_matrix(matrix, renormalize: bool = False):
        m = require_hermitian(matrix, name="density matrix")
        with np.errstate(over="ignore"):  # an overflow is refused below, not warned of
            tr = trace(m).real
            if renormalize:
                if not all_true((tr > 0) & np.isfinite(tr)):
                    raise InvalidInput("cannot renormalize a matrix whose trace is not "
                                       "positive and finite")
                m = m / tr[..., None, None]
                # a small trace can overflow the rescaled entries
                if not np.isfinite(m).all():
                    raise InvalidInput("density matrix entries must be finite once rescaled")
            elif not all_true(abs(tr - 1.0) <= TRACE_TOL):
                # the first bad state of a stack words the error
                off = np.ravel(tr)[np.argmax(np.ravel(~(abs(tr - 1.0) <= TRACE_TOL)))].item()
                raise InvalidInput(
                    f"density matrix trace {off!r} is not 1; pass renormalize=True to rescale"
                )
        return DensityMatrix(matrix=m)


@dataclass(frozen=True)
class UsdProblem:
    """Two states with their priors and an optional involution U with
    rho1 = U rho0 U. The states may be stacks of one shape; the priors
    and the involution are then shared by every instance."""

    rho0: DensityMatrix
    rho1: DensityMatrix
    eta0: float
    eta1: float
    gu_involution: Optional[np.ndarray] = None

    @property
    def dim(self) -> int:
        return self.rho0.dim

    @cached_property
    def sum_spectrum(self) -> EigenSystem:
        """Eigendecomposition of rho0 + rho1."""
        return eigh(self.rho0.matrix + self.rho1.matrix)

    def decompose(self) -> "UsdProblem":
        """Decompose rho0, rho1 and rho0 + rho1 in one stacked eigh call,
        which gives each the bits of a call of its own, and cache the three
        where the states' spectrum and sum_spectrum read them. A problem
        that holds any of them already is left to decompose each where it
        is read. Returns the problem."""
        r0, r1 = self.rho0.matrix, self.rho1.matrix
        owners = ((self.rho0, "spectrum"), (self.rho1, "spectrum"), (self, "sum_spectrum"))
        if r0.shape == r1.shape and r0.dtype == r1.dtype and not any(
                name in vars(owner) for owner, name in owners):
            with np.errstate(over="ignore"):  # an overflowing sum gives NaN, as on its own
                sys = eigh(np.array((r0, r1, r0 + r1)))
            for i, (owner, name) in enumerate(owners):
                vars(owner)[name] = _take_eigensystem(sys, i)
        return self

    @cached_property
    def gu_structure(self) -> "ValidationReport":
        """verify_gu_structure of the states and the involution."""
        return verify_gu_structure(self.rho0, self.rho1, self.gu_involution)

    @cached_property
    def supports_overlap(self) -> bool:
        """Whether the supports share a direction: their ranks add up to
        more than the rank of their sum."""
        return self.rho0.support.rank + self.rho1.support.rank > self.sum_spectrum.rank()

    @cached_property
    def fidelity_pair(self):
        """bounds.fidelity_operators of the problem, for every reader."""
        from .bounds import fidelity_operators  # bounds builds on this module
        return fidelity_operators(self)

    def take(self, rows) -> "UsdProblem":
        """The instances at the given indices of a stacked problem, with
        the stack's involution. The sub-stack holds the row slices of
        every decomposition this stack has already cached, so reading
        them calls no eigensolver."""
        sub = UsdProblem(
            rho0=_take_state(self.rho0, rows), rho1=_take_state(self.rho1, rows),
            eta0=self.eta0, eta1=self.eta1, gu_involution=self.gu_involution,
        )
        _take_cached(self, sub, rows)
        return sub


def _take_eigensystem(sys: EigenSystem, rows) -> EigenSystem:
    return EigenSystem(eigenvalues=sys.eigenvalues[rows], eigenvectors=sys.eigenvectors[rows])


def _take_support(dec: SupportDecomposition, rows) -> SupportDecomposition:
    # every row of a stack has the stack's rank
    return SupportDecomposition(support_projector=dec.support_projector[rows],
                                kernel_projector=dec.kernel_projector[rows], rank=dec.rank)


# How each cached_property of a stack slices to a sub-stack. Every matrix
# of a stack is decomposed on its own, so the slice has the bits the
# sub-stack would compute; supports_overlap follows from the shared ranks.
_TAKE = {
    "spectrum": _take_eigensystem,
    "support": _take_support,
    "factor": lambda a, rows: a[rows],
    "sum_spectrum": _take_eigensystem,
    "supports_overlap": lambda flag, rows: flag,
    "fidelity_pair": lambda fd, rows: fd.take(rows),
}


def _take_cached(parent, sub, rows):
    # cached_property keeps its values in the instance __dict__, which a
    # frozen dataclass leaves writable
    for name, value in vars(parent).items():
        if name in _TAKE:
            vars(sub)[name] = _TAKE[name](value, rows)


def _take_state(state: DensityMatrix, rows) -> DensityMatrix:
    sub = DensityMatrix(state.matrix[rows])
    _take_cached(state, sub, rows)
    return sub


@dataclass(frozen=True)
class Povm:
    """Three-outcome measurement (identify 0, identify 1, give up)."""

    e0: np.ndarray
    e1: np.ndarray
    eq: np.ndarray


@dataclass
class ValidationReport:
    """Named residuals plus the subset that exceeded tolerance."""

    residuals: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, name: str, residual, bound: float):
        """Record a residual, or its per-instance array for a stack; the
        check fails when any of them exceeds its bound (which may also be
        per instance) or is NaN."""
        if isinstance(residual, np.ndarray) and residual.ndim:
            self.residuals[name] = residual
            ok = (residual <= bound).all()
        else:
            residual = float(residual)
            self.residuals[name] = residual
            ok = residual <= bound
        if not ok:
            self.failures.append(name)


def validate_problem(p: UsdProblem) -> ValidationReport:
    """Check every instance invariant; the report lists each residual.
    A state passes the PSD check exactly when DensityMatrix.factor accepts it."""
    rep = ValidationReport()
    p.decompose()  # the spectra read below, and by the solve or audit after it
    r0, r1 = p.rho0.matrix, p.rho1.matrix
    if r0.shape != r1.shape:
        rep.residuals["dim_match"] = abs(r0.shape[-1] - r1.shape[-1])
        rep.failures.append("dim_match")
        return rep
    states = np.array((r0, r1))
    skews, traces = unstack(hermitian_skew(states)[0]), unstack(abs(trace(states).real - 1.0))
    for name, state, skew, tr in zip(("rho0", "rho1"), (p.rho0, p.rho1), skews, traces):
        rep.check(f"{name}_hermitian", skew, HERM_TOL)
        # the state's cached spectrum, which the solve and audit read too
        mn, bound = negativity_bound(state.spectrum.eigenvalues)
        rep.check(f"{name}_psd", at_least(-mn, 0.0), bound)
        rep.check(f"{name}_trace", tr, TRACE_TOL)
    rep.check("priors_sum", abs(p.eta0 + p.eta1 - 1.0), PRIOR_TOL)
    for name, eta in (("eta0", p.eta0), ("eta1", p.eta1)):
        rep.check(f"{name}_in_open_interval", 0.0 if 0.0 < eta < 1.0 else 1.0, 0.0)
    if p.gu_involution is not None:
        gu = p.gu_structure
        rep.residuals.update({f"gu_{k}": v for k, v in gu.residuals.items()})
        rep.failures.extend(f"gu_{k}" for k in gu.failures)
    return rep


def validate_povm(p: UsdProblem, m: Povm) -> ValidationReport:
    """Positivity, completeness and the two error-free trace conditions."""
    # the three elements' spectra in one stacked call
    return povm_report(p, m, psd_check(np.array([m.e0, m.e1, m.eq]))[1])[0]


def povm_report(p: UsdProblem, m: Povm, mins=None):
    """validate_povm's report and each element's PSD bound, relative to
    its scale. mins, the minimum eigenvalues of the hermitized E0, E1 and
    Eq, may come from a caller's larger stacked call; without them the
    report holds the checks that read the entries alone (completeness and
    the error-free traces too), for a caller that decides positivity
    without eigenvalues."""
    rep = ValidationReport()
    skews, scales = hermitian_skew(np.array([m.e0, m.e1, m.eq]))
    bounds = [PSD_TOL * scale for scale in unstack(scales)]
    mins = (None,) * 3 if mins is None else unstack(mins)
    for name, skew, bound, mn in zip(("e0", "e1", "eq"), unstack(skews), bounds, mins):
        rep.check(f"{name}_hermitian", skew, 1e-10)
        if mn is not None:
            rep.check(f"{name}_psd", at_least(-mn, 0.0), bound)
    rep.check("completeness", max_abs(m.e0 + m.e1 + m.eq - np.eye(p.dim)), COMPLETENESS_TOL)
    rep.check("error_free_0", abs(trace(m.e0 @ p.rho1.matrix).real), ERROR_FREE_TOL)
    rep.check("error_free_1", abs(trace(m.e1 @ p.rho0.matrix).real), ERROR_FREE_TOL)
    return rep, bounds


def failure_probability(p: UsdProblem, m: Povm):
    """Total and per-state inconclusive probabilities (q, q0, q1)."""
    q0 = p.eta0 * trace(m.eq @ p.rho0.matrix).real
    q1 = p.eta1 * trace(m.eq @ p.rho1.matrix).real
    return q0 + q1, q0, q1


# huge entries overflow the products below, and the checks then fail
@np.errstate(over="ignore", invalid="ignore")
def verify_gu_structure(rho0: DensityMatrix, rho1: DensityMatrix,
                        u: np.ndarray) -> ValidationReport:
    """Check that u is a Hermitian involution conjugating state 0 to state 1
    (every instance of a stack, by the one u)."""
    rep = ValidationReport()
    u = as_double(u)
    if u.shape != rho0.matrix.shape[-2:]:
        rep.residuals["u_shape"] = 1.0
        rep.failures.append("u_shape")
        return rep
    eye = np.eye(u.shape[0])
    rep.check("u_unitary", max_abs(dagger(u) @ u - eye), INVOLUTION_TOL)
    rep.check("u_involution", max_abs(u @ u - eye), INVOLUTION_TOL)
    rep.check("u_hermitian", max_abs(u - dagger(u)), INVOLUTION_TOL)
    rep.check("conjugation", max_abs(rho1.matrix - u @ rho0.matrix @ u), INVOLUTION_TOL)
    return rep


def projectivity_check(m: Povm) -> ValidationReport:
    """Idempotence of all three elements, conclusive-element
    orthogonality, and the rank-2 inconclusive element."""
    return projectivity_report(m, eigvalsh(projectivity_matrices(m)))


def projectivity_matrices(m: Povm) -> np.ndarray:
    """The Gram matrices a^H a of the idempotence residuals a = E^2 - E of
    E0, E1 and Eq, then the hermitized Eq, along a first axis."""
    elements = np.array([m.e0, m.e1, m.eq])
    a = elements @ elements - elements
    return hermitize(np.concatenate((dagger(a) @ a, elements[2:])))


def projectivity_report(m: Povm, w: np.ndarray) -> ValidationReport:
    """projectivity_check's report from the spectra w of
    projectivity_matrices(m), which a caller may take in a larger call."""
    rep = ValidationReport()
    for name, norm in zip(("e0", "e1", "eq"), unstack(gram_norm(w[:3]))):
        rep.check(f"{name}_idempotent", norm, PROJECTIVE_TOL)
    rep.check("e0_e1_orthogonal", abs(trace(m.e0 @ m.e1).real), PROJECTIVE_TOL)
    rank = shared_rank(w[3])
    rep.residuals["eq_rank"] = float(rank)
    if rank != 2:
        rep.failures.append("eq_rank")
    return rep
