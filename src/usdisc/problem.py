"""Domain types for two-state discrimination instances and measurements.

A problem is a pair of density matrices with prior probabilities, plus
an optional involution relating them. A measurement is the three-element
decomposition (conclusive for state 0, conclusive for state 1,
inconclusive). Validation is report based and never throws so the
command line can surface every violation at once.

A problem may also hold a stack of same-shape instances along leading
axes, sharing one pair of priors and one involution (see UsdProblem).
validate_povm, failure_probability and verify_gu_structure check or
evaluate every instance of such a stack. UsdProblem.decompose takes the
spectra of rho0, rho1 and rho0 + rho1 in one stacked call, and
validate_problem and solve start with it. UsdProblem.take selects
instances; the sub-stack keeps the row slices of every decomposition the
stack has cached (the fidelity pair too), so it decomposes nothing again.
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
    max_abs,
    negativity_bound,
    psd_check,
    require_hermitian,
    trace,
    unstack,
)

TRACE_TOL = 1e-10
PRIOR_TOL = 1e-12
COMPLETENESS_TOL = 1e-9
ERROR_FREE_TOL = 1e-9
INVOLUTION_TOL = 1e-9


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
                off = np.ravel(tr)[np.argmax(abs(tr - 1.0))].item()
                raise InvalidInput(
                    f"density matrix trace {off!r} is not 1; pass renormalize=True to rescale"
                )
        return DensityMatrix(matrix=m)

    @staticmethod
    def pair(m0, m1, renormalize: bool = False) -> tuple:
        """from_matrix of two same-shape matrices, checked as one stack.
        A pair that fails is checked again state by state, so the error
        is the one from_matrix gives the first bad state."""
        try:
            stack = DensityMatrix.from_matrix(np.stack((m0, m1)), renormalize).matrix
        except InvalidInput:
            return tuple(DensityMatrix.from_matrix(m, renormalize) for m in (m0, m1))
        return DensityMatrix(stack[0]), DensityMatrix(stack[1])


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
                sys = eigh(np.stack((r0, r1, r0 + r1)))
            for i, (owner, name) in enumerate(owners):
                vars(owner)[name] = _take_eigensystem(sys, i)
        return self

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


def _hermiticity_residual(a: np.ndarray):
    return max_abs(a - dagger(a)) / at_least(max_abs(a), 1.0)


def validate_problem(p: UsdProblem) -> ValidationReport:
    """Check every instance invariant; the report lists each residual.
    A state passes the PSD check exactly when DensityMatrix.factor accepts it."""
    rep = ValidationReport()
    p.decompose()  # the spectra read below, and by the solve or audit after it
    r0, r1 = p.rho0.matrix, p.rho1.matrix
    if r0.shape != r1.shape:
        rep.residuals["dim_match"] = abs(r0.shape[0] - r1.shape[0])
        rep.failures.append("dim_match")
        return rep
    for name, state in (("rho0", p.rho0), ("rho1", p.rho1)):
        m = state.matrix
        rep.check(f"{name}_hermitian", _hermiticity_residual(m), HERM_TOL)
        # the state's cached spectrum, which the solve and audit read too
        mn, bound = negativity_bound(state.spectrum.eigenvalues)
        rep.check(f"{name}_psd", max(0.0, -mn), bound)
        rep.check(f"{name}_trace", abs(np.trace(m).real - 1.0), TRACE_TOL)
    rep.check("priors_sum", abs(p.eta0 + p.eta1 - 1.0), PRIOR_TOL)
    for name, eta in (("eta0", p.eta0), ("eta1", p.eta1)):
        rep.check(f"{name}_in_open_interval", 0.0 if 0.0 < eta < 1.0 else 1.0, 0.0)
    if p.gu_involution is not None:
        gu = verify_gu_structure(p.rho0, p.rho1, p.gu_involution)
        rep.residuals.update({f"gu_{k}": v for k, v in gu.residuals.items()})
        rep.failures.extend(f"gu_{k}" for k in gu.failures)
    return rep


def _element_checks(m: Povm):
    """Each element's name, its Hermiticity residual and its PSD bound,
    both relative to its largest entry magnitude (at least 1)."""
    for name, el in (("e0", m.e0), ("e1", m.e1), ("eq", m.eq)):
        scale = at_least(max_abs(el), 1.0)
        yield name, max_abs(el - dagger(el)) / scale, PSD_TOL * scale


def _check_sums(p: UsdProblem, m: Povm, rep: ValidationReport):
    """Completeness and the two error-free trace conditions."""
    rep.check("completeness", max_abs(m.e0 + m.e1 + m.eq - np.eye(p.dim)), COMPLETENESS_TOL)
    rep.check("error_free_0", abs(trace(m.e0 @ p.rho1.matrix).real), ERROR_FREE_TOL)
    rep.check("error_free_1", abs(trace(m.e1 @ p.rho0.matrix).real), ERROR_FREE_TOL)


def validate_povm(p: UsdProblem, m: Povm) -> ValidationReport:
    """Positivity, completeness and the two error-free trace conditions."""
    rep = ValidationReport()
    # the three elements' spectra in one stacked call
    _, mins = psd_check(np.array([m.e0, m.e1, m.eq]))
    for (name, skew, bound), mn in zip(_element_checks(m), unstack(mins)):
        rep.check(f"{name}_hermitian", skew, 1e-10)
        rep.check(f"{name}_psd", at_least(-mn, 0.0), bound)
    _check_sums(p, m, rep)
    return rep


def povm_entry_checks(p: UsdProblem, m: Povm):
    """validate_povm's checks that read the entries alone: each element's
    Hermiticity, completeness and the two error-free conditions, in one
    report, and each element's PSD bound, for a caller that decides
    positivity without eigenvalues."""
    rep, bounds = ValidationReport(), []
    for name, skew, bound in _element_checks(m):
        rep.check(f"{name}_hermitian", skew, 1e-10)
        bounds.append(bound)
    _check_sums(p, m, rep)
    return rep, bounds


def failure_probability(p: UsdProblem, m: Povm):
    """Total and per-state inconclusive probabilities (q, q0, q1)."""
    q0 = p.eta0 * trace(m.eq @ p.rho0.matrix).real
    q1 = p.eta1 * trace(m.eq @ p.rho1.matrix).real
    return q0 + q1, q0, q1


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
