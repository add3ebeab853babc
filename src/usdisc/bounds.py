"""Fidelity operators and the failure-probability bounds built on them.

The two operators sqrt(sqrt(rho0) rho1 sqrt(rho0)) and its mirror share
a trace, the fidelity F, which caps how well any error-free measurement
can do: the inconclusive probability can never drop below
2 sqrt(eta0 eta1) F. Each lives on one state's support, and so does
each rank-condition operator, rho0 - gamma F0 and rho1 - F1 / gamma,
whose joint positivity decides whether that cap is attained. All of
them come from one SVD of the r0 x r1 support core of sqrt(rho0)
sqrt(rho1), taken once per problem (UsdProblem.fidelity_pair); both
rank-condition spectra and their verdict come from one eigenvalue call
in support coordinates, cached on the FidelityData. The functions here
also take a stacked problem and return per-instance values, except
tighter_q0_bound, which takes one problem.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BranchNotApplicable, InvalidInput, NumericalFailure
from .linalg import (
    REL_CUTOFF,
    any_true,
    assemble,
    dagger,
    eigvalsh,
    hermitize,
    item_or_array,
    nonzero_mask,
    psd_verdict,
    unstack,
)
from .problem import UsdProblem


# For a stacked problem each field of these two holds per-instance values.
@dataclass(frozen=True)
class RankConditionReport:
    op0_min_eig: float
    op1_min_eig: float
    both_psd: bool


@dataclass(frozen=True)
class FidelityData:
    """The fidelity pair of a problem in support coordinates (see
    fidelity_operators): w and S of the SVD w S v^H of its support core,
    rho0's eigenvectors (support columns B0 last) and both rank-condition
    operators. F0 = left S left^H with left = B0 w is built on first use;
    F1 is F0 of the problem with the states swapped."""

    s: np.ndarray  # the singular values, cut as fidelity_operators says
    w: np.ndarray
    core_polar: np.ndarray  # w v^H on the pairs of singular vectors, r0 x r1
    vectors0: np.ndarray
    fidelity: float
    # Lambda0 - gamma w S w^H and Lambda1 - v S v^H / gamma, each
    # zero-padded to max(r0, r1), stacked along a new first axis
    rank_operators: np.ndarray

    @cached_property
    def f0(self) -> np.ndarray:
        left = self.vectors0[..., self.vectors0.shape[-1] - self.w.shape[-1]:] @ self.w
        return assemble(self.s, left[..., :self.s.shape[-1]])

    @cached_property
    def rank_report(self) -> RankConditionReport:
        """The regime verdict, from one eigenvalue call over both
        rank_operators. Each operator vanishes on its state's kernel, which
        a pair whose supports do not overlap never has empty, so its minimum
        eigenvalue is min(lowest support-coordinate eigenvalue, 0), exactly."""
        # each operator's verdict on its own: scalar arithmetic for one problem
        (ok0, mn0), (ok1, mn1) = map(psd_verdict, unstack(np.linalg.eigvalsh(self.rank_operators)))
        return RankConditionReport(op0_min_eig=np.minimum(mn0, 0.0),
                                   op1_min_eig=np.minimum(mn1, 0.0), both_psd=ok0 & ok1)

    def take(self, rows) -> "FidelityData":
        """The instances at the given indices of a stack's fidelity data,
        with the row slices of its cached rank_report."""
        sub = FidelityData(self.s[rows], self.w[rows], self.core_polar[rows], self.vectors0[rows],
                           item_or_array(self.fidelity[rows]), self.rank_operators[:, rows])
        if "rank_report" in vars(self):
            r = self.rank_report
            vars(sub)["rank_report"] = RankConditionReport(
                *(item_or_array(a[rows]) for a in (r.op0_min_eig, r.op1_min_eig, r.both_psd)))
        return sub


def fidelity_operators(p: UsdProblem) -> FidelityData:
    """Both fidelity operators, their shared trace F, the polar factor
    and the rank-condition operators, from one SVD of the r0 x r1 support
    core C = X0^H X1 = sqrt(Lambda0) B0^H B1 sqrt(Lambda1), where
    rho_i = B_i Lambda_i B_i^H = X_i X_i^H on its support columns B_i
    (DensityMatrix.factor). Then sqrt(rho0) sqrt(rho1) = B0 C B1^H, so
    C = w S v^H gives F0 = (B0 w) S (B0 w)^H, F1 = (B1 v) S (B1 v)^H,
    F = sum S and the polar factor w v^H that the fidelity witness uses.
    Singular values below the rank cutoff, relative to the largest, are
    zeroed; the SVD resolves them well below it. Before that cut,
    Re Tr((w v^H)^H C) must equal sum S within 1e-9; a miss means the SVD
    is inaccurate.
    """
    d = p.dim
    r0, r1 = p.rho0.support.rank, p.rho1.support.rank
    core = dagger(p.rho0.factor) @ p.rho1.factor
    try:
        w, s, vh = np.linalg.svd(core)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc
    k = s.shape[-1]
    vh = vh[..., :k, :]  # the right singular vectors paired with a singular value
    core_polar = w[..., :k] @ vh
    gap = np.abs((core_polar.conj() * core).real.sum(axis=(-2, -1)) - s.sum(axis=-1))
    miss = ~(gap <= 1e-9)  # a NaN gap misses too
    if any_true(miss):
        raise NumericalFailure("singular values miss the polar trace by "
                               f"{np.ravel(gap)[np.argmax(miss)].item()!r}")
    s = np.where(nonzero_mask(s), s, 0.0)

    # Lambda_i on the diagonal of a zero stack, the Gram matrices of the
    # singular vectors weighted by gamma S and S / gamma subtracted; a
    # nonpositive prior leaves gamma undefined, and rank_condition_check
    # refuses such a problem before it reads them
    gamma = math.sqrt(p.eta1 / p.eta0) if p.eta0 > 0.0 and p.eta1 > 0.0 else math.nan
    m = max(r0, r1)
    ops = np.zeros((2,) + core.shape[:-2] + (m, m), core.dtype)
    diag = ops.reshape(ops.shape[:-2] + (m * m,))
    for i, (lam, u, scale) in enumerate((
            (p.rho0.spectrum.eigenvalues[..., d - r0:], w[..., :k], gamma),
            (p.rho1.spectrum.eigenvalues[..., d - r1:], dagger(vh), 1.0 / gamma))):
        r = lam.shape[-1]
        diag[i, ..., :r * (m + 1):m + 1] = lam
        ops[i, ..., :r, :r] -= (u * (scale * s)[..., None, :]) @ dagger(u)
    return FidelityData(s, w, core_polar, p.rho0.spectrum.eigenvectors,
                        item_or_array(s.sum(axis=-1)), ops)


def failure_lower_bound(p: UsdProblem) -> float:
    """2 sqrt(eta0 eta1) F, clamped into [0, 1]."""
    return item_or_array(np.clip(2.0 * math.sqrt(p.eta0 * p.eta1) * p.fidelity_pair.fidelity,
                                 0.0, 1.0))


def rank_condition_check(p: UsdProblem) -> RankConditionReport:
    """Minimum eigenvalues of the two operators whose joint positivity
    marks the regime where the fidelity bound is attained: the verdict
    cached on the problem's fidelity pair (FidelityData.rank_report), the
    one every reader of the regime takes."""
    if p.supports_overlap:
        raise InvalidInput(
            "state supports overlap; reduce the problem before testing rank conditions"
        )
    if not (p.eta0 > 0.0 and p.eta1 > 0.0):
        raise InvalidInput(f"rank conditions need positive priors, got {p.eta0!r}, {p.eta1!r}")
    return p.fidelity_pair.rank_report


def tighter_q0_bound(p: UsdProblem):
    """Sharpened floor on the state-0 inconclusive probability for
    symmetric measurements on a standard-form pair.

    Returns (bound, lambda_min) where lambda_min is the smallest
    non-vanishing eigenvalue of the kernel-compressed state
    P1_perp rho0 P1_perp, with P1_perp rho1's cached kernel projector. The
    rank cutoff relative to rho0's largest eigenvalue, not the compression's
    (which may be rounding noise alone), decides which count as vanishing.
    """
    if p.gu_involution is None:
        raise BranchNotApplicable(
            "bound is derived for symmetric measurements; the problem "
            "declares no involution",
            cause="gu_involution",
        )
    d1 = p.rho1.support
    k1 = d1.kernel_projector
    compressed = hermitize(k1 @ p.rho0.matrix @ k1)
    w = eigvalsh(compressed)
    nonzero = w[w > REL_CUTOFF * p.rho0.spectrum.eigenvalues[-1]]
    if nonzero.size == 0:
        raise InvalidInput("kernel-compressed state vanishes; bound undefined")
    lambda_min = float(nonzero[0])
    overlap = float(np.trace(d1.support_projector @ p.rho0.matrix).real)
    return p.eta0 * overlap / (1.0 - lambda_min / 2.0), lambda_min
