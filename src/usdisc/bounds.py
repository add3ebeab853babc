"""Fidelity operators and the failure-probability bounds built on them.

The two operators sqrt(sqrt(rho0) rho1 sqrt(rho0)) and its mirror share
a trace, the fidelity F, which caps how well any error-free measurement
can do: the inconclusive probability can never drop below
2 sqrt(eta0 eta1) F. All three, and the polar unitary of the first-class
witness, come from one SVD of sqrt(rho0) sqrt(rho1). Whether that cap
is attained is decided by the two rank-condition operators tested here.
fidelity_operators and rank_condition_check also take a stacked problem
and return per-instance values.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchNotApplicable, InvalidInput, NumericalFailure
from .linalg import (
    REL_CUTOFF,
    all_true,
    assemble,
    dagger,
    hermitize,
    item_or_array,
    nonzero_mask,
    psd_check,
    trace,
    unstack,
)
from .problem import UsdProblem


# For a stacked problem each field of these two holds per-instance values.
@dataclass(frozen=True)
class FidelityData:
    f0: np.ndarray
    f1: np.ndarray
    polar: np.ndarray  # W V^H, the unitary of the polar split
    fidelity: float

    def take(self, rows) -> "FidelityData":
        """The instances at the given indices of a stack's fidelity data."""
        return FidelityData(self.f0[rows], self.f1[rows], self.polar[rows], self.fidelity[rows])


@dataclass(frozen=True)
class RankConditionReport:
    op0_min_eig: float
    op1_min_eig: float
    both_psd: bool


def fidelity_operators(p: UsdProblem) -> FidelityData:
    """Both fidelity operators, their shared trace F and the polar unitary,
    from one SVD sqrt(rho0) sqrt(rho1) = W S V^H: F0 = W S W^H,
    F1 = V S V^H, F = sum S and polar = W V^H. Singular values whose
    square is below the rank cutoff are zeroed, as in the square root of
    either sandwich. Before that cut, Re Tr(polar^H sqrt(rho0) sqrt(rho1))
    must equal sum S within 1e-9; a miss means the SVD is inaccurate.
    """
    a = p.rho0.sqrt @ p.rho1.sqrt
    try:
        w, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc
    polar = w @ vh
    gap = np.abs(trace(dagger(polar) @ a).real - s.sum(axis=-1))
    if not all_true(gap <= 1e-9):
        i = np.argmax(~(gap <= 1e-9))
        raise NumericalFailure("singular values miss the polar trace by "
                               f"{np.ravel(gap)[i].item()!r}")
    s = np.where(nonzero_mask(s * s), s, 0.0)
    return FidelityData(assemble(s, w), assemble(s, dagger(vh)), polar,
                        item_or_array(s.sum(axis=-1)))


def failure_lower_bound(p: UsdProblem) -> float:
    """2 sqrt(eta0 eta1) F, clamped into [0, 1]."""
    fd = fidelity_operators(p)
    return min(1.0, max(0.0, 2.0 * math.sqrt(p.eta0 * p.eta1) * fd.fidelity))


def rank_condition_check(p: UsdProblem, fd: FidelityData = None) -> RankConditionReport:
    """Minimum eigenvalues of the two operators whose joint positivity
    marks the regime where the fidelity bound is attained."""
    if p.supports_overlap:
        raise InvalidInput(
            "state supports overlap; reduce the problem before testing rank conditions"
        )
    if fd is None:
        fd = fidelity_operators(p)
    gamma = math.sqrt(p.eta1 / p.eta0)
    ok, mn = psd_check(np.array([p.rho0.matrix - gamma * fd.f0,
                                 p.rho1.matrix - fd.f1 / gamma]))
    (ok0, ok1), (mn0, mn1) = unstack(ok), unstack(mn)
    return RankConditionReport(op0_min_eig=mn0, op1_min_eig=mn1,
                               both_psd=ok0 & ok1)


def prior_regime_bounds(p: UsdProblem, fd: FidelityData = None):
    """The prior-ratio window inside which both rank conditions can hold.

    Returns (low, high, ratio, inside) where ratio = sqrt(eta1/eta0).
    """
    if fd is None:
        fd = fidelity_operators(p)
    if fd.fidelity <= 0.0:
        raise InvalidInput(
            "states are perfectly distinguishable; the prior window is vacuous"
        )
    p0 = p.rho0.support.support_projector
    p1 = p.rho1.support.support_projector
    low = float(np.trace(p1 @ p.rho0.matrix).real) / fd.fidelity
    denom = float(np.trace(p0 @ p.rho1.matrix).real)
    high = math.inf if denom <= 0.0 else fd.fidelity / denom
    ratio = math.sqrt(p.eta1 / p.eta0)
    return low, high, ratio, bool(low <= ratio <= high)


def tighter_q0_bound(p: UsdProblem, rel_cutoff: float = REL_CUTOFF):
    """Sharpened floor on the state-0 inconclusive probability for
    symmetric measurements on a standard-form pair.

    Returns (bound, lambda_min) where lambda_min is the smallest
    non-vanishing eigenvalue of the kernel-compressed state
    P1_perp rho0 P1_perp. The same relative cutoff that defines ranks
    decides which eigenvalues count as vanishing.
    """
    if p.gu_involution is None:
        raise BranchNotApplicable(
            "bound is derived for symmetric measurements; the problem "
            "declares no involution",
            cause="gu_involution",
        )
    d1 = p.rho1.spectrum.support(rel_cutoff)
    k1 = d1.kernel_projector
    compressed = hermitize(k1 @ p.rho0.matrix @ k1)
    w = np.linalg.eigvalsh(compressed)
    nonzero = w[nonzero_mask(w, rel_cutoff)]
    if nonzero.size == 0:
        raise InvalidInput("kernel-compressed state vanishes; bound undefined")
    lambda_min = float(nonzero[0])
    overlap = float(np.trace(d1.support_projector @ p.rho0.matrix).real)
    return p.eta0 * overlap / (1.0 - lambda_min / 2.0), lambda_min
