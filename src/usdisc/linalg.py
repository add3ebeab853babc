"""Dense Hermitian linear algebra for small dimensions.

Everything downstream (fidelity operators, measurement construction,
certificates) reduces to eigendecompositions of Hermitian matrices of
dimension at most ~16, real or complex: the dtype follows the input (see
as_double), so a real problem runs in real arithmetic. This module wraps
the dense eigensolver in eigh, whose EigenSystem derives from one
decomposition the handful of spectral primitives the rest of the package
needs: rank, operator square root, pseudo-inverse, support and kernel
projectors, all under one relative rank cutoff, each read off eigh(a)
(for example eigh(a).support()). Positivity tests use eigenvalues alone.

Every function here also takes a stack of same-shape matrices along
leading axes and works on each matrix of it; numpy's stacked eigen,
SVD and matrix-product calls give each matrix the same bits as a call
on that matrix alone. So a check over several matrices stacks them into
one call to eigvalsh, psd_check or sqrt_psd (unstack splits the
result), and the row slices of a stack's decompositions are those of
the sub-stack. A stack shares one rank: the support and kernel columns
are slices, so a stack that mixes ranks is refused.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BranchNotApplicable, InvalidInput, NumericalFailure

# Relative rank cutoff: eigenvalues below this fraction of the largest one
# are treated as zero. Well above double-precision eigenvalue noise at
# dim <= 16 and well below any physical eigenvalue this package meets.
REL_CUTOFF = 1e-10

# Relative tolerance for positivity decisions (negativity_bound). Operator
# square roots are chained twice in the fidelity construction, each
# contributing roughly 1e-12 of error.
PSD_TOL = 1e-9

# Hermiticity tolerance enforced at construction boundaries.
HERM_TOL = 1e-12

# Largest entry magnitude whose symmetrized copy cannot overflow.
_HALF_MAX = np.finfo(float).max / 2


def as_double(a) -> np.ndarray:
    """a as a float64 array, or as a complex128 one when a is complex."""
    a = np.asarray(a)
    return np.asarray(a, complex if a.dtype.kind == "c" else float)


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def hermitize(a: np.ndarray) -> np.ndarray:
    """Symmetrize away floating-point skew; callers must already be
    Hermitian up to rounding."""
    h = a + dagger(a)
    h *= 0.5
    return h


def max_abs(a: np.ndarray):
    """Largest entry magnitude of each matrix."""
    return np.abs(a).max(axis=(-2, -1))


def trace(a: np.ndarray):
    """Trace of each matrix."""
    return a.trace(axis1=-2, axis2=-1)


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a x for each matrix and vector of a stack."""
    return (a @ x[..., None])[..., 0]


def inner(x: np.ndarray, y: np.ndarray):
    """<x|y> for each pair of vectors of a stack."""
    return (x.conj()[..., None, :] @ y[..., :, None])[..., 0, 0]


def form(x: np.ndarray, a: np.ndarray, y: np.ndarray):
    """<x|a|y> for each instance of a stack."""
    return ((x.conj()[..., None, :] @ a) @ y[..., :, None])[..., 0, 0]


def outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x><y| for each pair of vectors of a stack."""
    return x[..., :, None] * y.conj()[..., None, :]


# The helpers below take Python's scalar path for a value computed from
# one matrix (a numpy or Python scalar), where a numpy call costs more
# than the arithmetic, and numpy's for a stack.

def at_least(x, floor: float):
    """max(floor, x) as Python computes it (floor unless x > floor), for
    each entry of a stack."""
    return np.where(x > floor, x, floor) if isinstance(x, np.ndarray) else max(floor, x)


def any_true(flags) -> bool:
    """Whether a flag, or any flag of a stack, is set."""
    return bool(flags.any() if isinstance(flags, np.ndarray) else flags)


def all_true(flags) -> bool:
    """Whether a flag, or every flag of a stack, is set."""
    return bool(flags.all() if isinstance(flags, np.ndarray) else flags)


def item_or_array(x):
    """A value computed for one matrix as a Python scalar; the values
    computed for a stack as their array."""
    return x if x.ndim else x.item()


def unstack(x) -> list:
    """The values a stacked call computed for each entry along its first
    axis: Python scalars when each entry was one matrix, per-instance
    arrays when each was itself a stack."""
    return x.tolist() if x.ndim == 1 else list(x)


def hermitian_skew(a: np.ndarray):
    """The Hermiticity rule: (relative skew, scale) of each matrix, the skew
    |a - a^H|_max over the scale max(1, |a|_max); callers bound the former."""
    scale = at_least(max_abs(a), 1.0)
    return max_abs(a - dagger(a)) / scale, scale


def require_hermitian(a, name: str = "matrix") -> np.ndarray:
    """Validate the Hermitian contract (hermitian_skew within HERM_TOL)
    and return a symmetrized copy. The matrix must be square and nonempty,
    every entry finite and small enough that the copy is too."""
    a = as_double(a)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise InvalidInput(f"{name} must be square, got shape {a.shape}")
    if not a.shape[-1]:
        raise InvalidInput(f"{name} must not be empty, got shape {a.shape}")
    # first, as a - a^H would warn of such entries; a NaN one fails this too
    if not all_true(max_abs(a) <= _HALF_MAX):
        raise InvalidInput(f"{name} entries must be finite and at most "
                           f"{_HALF_MAX:.3e} in magnitude")
    skew, scale = hermitian_skew(a)
    if not all_true(skew <= HERM_TOL):
        i = np.argmax(np.ravel(skew > HERM_TOL))  # the first bad matrix of a stack words the error
        raise InvalidInput(
            f"{name} is not Hermitian: skew {np.ravel(skew * scale)[i]:.3e} exceeds "
            f"{HERM_TOL:.0e} * {np.ravel(scale)[i]:.3e}"
        )
    return hermitize(a)


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each Hermitian matrix, from its lower
    triangle, in one call; NaN ones for a matrix with an entry that is not
    finite, which the solver cannot decompose, so every check on them fails."""
    finite = np.isfinite(a).all(axis=(-2, -1))[..., None]
    if all_true(finite):
        return np.linalg.eigvalsh(a)
    return np.where(finite, np.linalg.eigvalsh(np.where(finite[..., None], a, 0.0)), np.nan)


def spectral_norm(a: np.ndarray):
    """Largest singular value of each matrix, read off a^H a by gram_norm."""
    return item_or_array(gram_norm(eigvalsh(hermitize(dagger(a) @ a))))


def gram_norm(w: np.ndarray):
    """Operator norm of each matrix a from the ascending spectrum w of a^H a."""
    return np.sqrt(np.maximum(w[..., -1], 0.0))


def nonzero_mask(w: np.ndarray, indefinite: bool = False) -> np.ndarray:
    """The relative rank cutoff: which eigenvalues count as nonzero.

    An eigenvalue counts when it exceeds REL_CUTOFF times the largest
    one. For an indefinite spectrum (indefinite=True) magnitudes are
    compared instead, so negative eigenvalues can count too.
    """
    w = np.abs(w) if indefinite else np.asarray(w)
    if not w.shape[-1]:
        return w > 0.0
    # no eigenvalue exceeds a nonpositive largest one, so that case needs
    # no clamp of the cutoff at zero
    return w > REL_CUTOFF * w.max(axis=-1, keepdims=True)


def negativity_bound(w: np.ndarray, floor: float = 1e-300):
    """The PSD rule for a matrix given its ascending spectrum w: returns
    (lowest eigenvalue, bound), and the matrix counts as PSD unless the
    lowest eigenvalue is below -bound, PSD_TOL times the larger of floor
    and the largest eigenvalue magnitude (psd_verdict's floor is 1)."""
    low, top = item_or_array(w[..., 0]), item_or_array(w[..., -1])
    # the largest magnitude sits at one end of the ascending spectrum
    return low, PSD_TOL * at_least(at_least(top, abs(low)), floor)


def shared_rank(w: np.ndarray) -> int:
    """Number of above-cutoff eigenvalues in the ascending spectrum w,
    which every matrix of a stack must share."""
    mask = nonzero_mask(w)
    # the spectrum ascends, so equal ranks mean equal masks
    first = mask if mask.ndim == 1 else mask.reshape(-1, mask.shape[-1])[0]
    if mask.ndim > 1 and not (mask == first).all():
        ranks = sorted(set(np.count_nonzero(mask, axis=-1).ravel().tolist()))
        raise BranchNotApplicable(f"stack mixes ranks {ranks}", cause="rank")
    return int(np.count_nonzero(first))


@dataclass(frozen=True)
class SupportDecomposition:
    """Orthogonal projectors onto the support and kernel of a PSD matrix."""

    support_projector: np.ndarray
    kernel_projector: np.ndarray
    rank: int


def assemble(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    return hermitize((v * w[..., None, :]) @ dagger(v))


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues and matching orthonormal eigenvector columns,
    and the spectral quantities derived from them, so that a caller who
    holds the decomposition of a matrix never decomposes it again."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def rank(self) -> int:
        return shared_rank(self.eigenvalues)

    def _columns(self, cols: slice) -> np.ndarray:
        # each matrix's columns stored one after another (Fortran order),
        # as boolean-mask indexing lays them out: BLAS rounds products
        # differently for other layouts
        return self.eigenvectors[..., cols].swapaxes(-1, -2).copy().swapaxes(-1, -2)

    def kernel_columns(self) -> np.ndarray:
        """Orthonormal basis of the below-cutoff eigenspace. The spectrum
        ascends, so these are the leading columns."""
        return self._columns(slice(None, self.eigenvalues.shape[-1] - self.rank()))

    def support(self) -> SupportDecomposition:
        """Projectors onto the span of above-cutoff eigenvectors and its complement."""
        rank = self.rank()
        cols = self._columns(slice(self.eigenvalues.shape[-1] - rank, None))
        p = hermitize(cols @ dagger(cols))
        return SupportDecomposition(
            support_projector=p,
            # I - p is as exactly Hermitian as p, so it needs no symmetrizing
            kernel_projector=np.eye(p.shape[-1]) - p,
            rank=rank,
        )

    def sqrt(self) -> np.ndarray:
        """Unique PSD square root; raises if the matrix is not PSD.

        Eigenvalues below REL_CUTOFF times the largest are zeroed, not
        just the negative ones. Taking sqrt of eigenvalue-scale noise
        would otherwise promote it above the rank cutoff and corrupt
        every support computed downstream.
        """
        self.require_psd()
        w = np.where(nonzero_mask(self.eigenvalues), self.eigenvalues, 0.0)
        return assemble(np.sqrt(w), self.eigenvectors)

    def require_psd(self):
        """Raise unless the matrix passes the PSD rule of negativity_bound."""
        w = self.eigenvalues
        if w.shape[-1]:
            low, bound = negativity_bound(w)
            below = low < -bound
            if any_true(below):
                worst = np.min(np.where(below, low, np.inf))
                raise NumericalFailure(
                    f"matrix has eigenvalue {worst:.6e} below "
                    f"-{np.max(np.where(below, bound, 0.0)):.3e}"
                )

    def _inverse_eigenvalues(self) -> np.ndarray:
        w = self.eigenvalues
        mask = nonzero_mask(w, indefinite=True)
        inv = np.zeros_like(w)
        inv[mask] = 1.0 / w[mask]
        return inv

    def pinv(self) -> np.ndarray:
        """Spectral pseudo-inverse; components below cutoff are dropped."""
        return assemble(self._inverse_eigenvalues(), self.eigenvectors)

    def pinv_times(self, x: np.ndarray) -> np.ndarray:
        """pinv() @ x, computed as V ((1/w) V^H x) without forming the
        d x d pseudo-inverse."""
        v = self.eigenvectors
        return v @ (self._inverse_eigenvalues()[..., :, None] * (dagger(v) @ x))


def eigh(h: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix. The eigenvector gauge is
    LAPACK's, a fixed function of the input; every consumer uses only
    gauge-invariant quantities."""
    h = as_double(h)
    try:
        w, v = np.linalg.eigh(hermitize(h))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver did not converge: {exc}") from exc
    return EigenSystem(eigenvalues=w, eigenvectors=v)


def sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Unique PSD square root of a PSD matrix (see EigenSystem.sqrt)."""
    return eigh(a).sqrt()


def psd_check(a: np.ndarray):
    """Return (is_psd, min_eigenvalue) for a Hermitian matrix, or their
    per-matrix arrays for a stack.

    The decision threshold is -PSD_TOL * max(1, spectral norm); the exact
    minimum eigenvalue found is always returned.
    """
    return psd_verdict(eigvalsh(hermitize(as_double(a))))


def psd_verdict(w: np.ndarray):
    """psd_check's (is_psd, min_eigenvalue) from an ascending spectrum w,
    for a caller that already holds it: negativity_bound with a floor of 1."""
    if not w.shape[-1]:
        return True, 0.0
    mn, bound = negativity_bound(w, floor=1.0)
    return mn >= -bound, mn
