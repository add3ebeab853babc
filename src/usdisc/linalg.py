"""Deterministic dense Hermitian linear algebra for small dimensions.

Everything downstream (fidelity operators, measurement construction,
certificates) reduces to eigendecompositions of complex Hermitian
matrices of dimension at most ~16, so this module wraps the dense
eigensolver with fixed tie-breaking and exposes the handful of spectral
primitives the rest of the package needs: operator square root,
pseudo-inverse, support and kernel projectors, positivity tests.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EigenDecompositionError, NotPositiveSemidefinite

# Relative rank cutoff: eigenvalues below this fraction of the largest one
# are treated as zero. Well above double-precision eigenvalue noise at
# dim <= 16 and well below any physical eigenvalue this package meets.
REL_CUTOFF = 1e-10

# Default relative tolerance for positivity decisions. Operator square
# roots are chained twice in the fidelity construction, each contributing
# roughly 1e-12 of error.
PSD_TOL = 1e-9

# Hermiticity tolerance enforced at construction boundaries.
HERM_TOL = 1e-12


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def hermitize(a: np.ndarray) -> np.ndarray:
    """Symmetrize away floating-point skew; callers must already be
    Hermitian up to rounding."""
    return 0.5 * (a + a.conj().T)


def require_hermitian(a, tol: float = HERM_TOL, name: str = "matrix") -> np.ndarray:
    """Validate the Hermitian contract and return a symmetrized copy.

    The residual is measured in the max norm relative to max(1, |a|_max).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"{name} must be square, got shape {a.shape}")
    skew = np.abs(a - a.conj().T).max()
    scale = max(1.0, np.abs(a).max())
    if skew > tol * scale:
        raise DomainError(
            f"{name} is not Hermitian: skew {skew:.3e} exceeds {tol:.0e} * {scale:.3e}"
        )
    return hermitize(a)


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value; for Hermitian input the largest |eigenvalue|."""
    return float(np.linalg.norm(a, 2))


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class SupportDecomposition:
    """Orthogonal projectors onto the support and kernel of a PSD matrix."""

    support_projector: np.ndarray
    kernel_projector: np.ndarray
    rank: int
    cutoff_used: float


def _canonical_columns(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Fix eigenvector gauge so identical inputs give identical outputs.

    Each column is rotated so its largest-magnitude entry is real and
    positive. Within a degenerate eigenvalue cluster, columns are ordered
    by lexicographic comparison of their rounded coordinate vectors.
    """
    v = v.copy()
    n = v.shape[1]
    for k in range(n):
        col = v[:, k]
        j = int(np.argmax(np.abs(col)))
        pivot = col[j]
        if np.abs(pivot) > 0:
            v[:, k] = col * (np.abs(pivot) / pivot)
    # group indistinguishable eigenvalues, then sort the group columns
    scale = max(1.0, float(np.abs(w).max()) if n else 1.0)
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and abs(w[stop] - w[start]) <= 1e-12 * scale:
            stop += 1
        if stop - start > 1:
            block = v[:, start:stop]
            keys = [
                tuple(np.round(np.stack([block[:, i].real, block[:, i].imag], 1).ravel(), 9))
                for i in range(stop - start)
            ]
            order = sorted(range(stop - start), key=lambda i: keys[i])
            v[:, start:stop] = block[:, order]
        start = stop
    return v


def eigh(h: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix with fixed tie-breaking."""
    h = np.asarray(h, dtype=complex)
    try:
        w, v = np.linalg.eigh(hermitize(h))
    except np.linalg.LinAlgError as exc:
        raise EigenDecompositionError(f"eigensolver did not converge: {exc}") from exc
    return EigenSystem(eigenvalues=w, eigenvectors=_canonical_columns(w, v))


def _assemble(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    return hermitize((v * w[None, :]) @ v.conj().T)


def sqrt_psd(a: np.ndarray, tol: float = PSD_TOL, rel_cutoff: float = REL_CUTOFF) -> np.ndarray:
    """Unique PSD square root of a PSD matrix.

    Eigenvalues below rel_cutoff times the largest are zeroed, not just
    the negative ones. Taking sqrt of eigenvalue-scale noise would
    otherwise promote it above the rank cutoff and corrupt every support
    computed downstream.
    """
    sys = eigh(a)
    w = sys.eigenvalues
    lmax = float(w[-1]) if w.size else 0.0
    bound = tol * max(abs(w[0]) if w.size else 0.0, lmax, 1e-300)
    if w.size and w[0] < -bound:
        raise NotPositiveSemidefinite(
            f"matrix has eigenvalue {w[0]:.6e} below -{bound:.3e}",
            min_eigenvalue=float(w[0]),
        )
    w = np.where(w > rel_cutoff * max(lmax, 0.0), w, 0.0)
    return _assemble(np.sqrt(w), sys.eigenvectors)


def support_decomposition(a: np.ndarray, rel_cutoff: float = REL_CUTOFF) -> SupportDecomposition:
    """Projectors onto the span of above-cutoff eigenvectors and its complement."""
    sys = eigh(a)
    w = sys.eigenvalues
    lmax = float(w[-1]) if w.size else 0.0
    mask = w > rel_cutoff * max(lmax, 0.0)
    cols = sys.eigenvectors[:, mask]
    p = hermitize(cols @ cols.conj().T)
    eye = np.eye(a.shape[0])
    return SupportDecomposition(
        support_projector=p,
        kernel_projector=hermitize(eye - p),
        rank=int(np.count_nonzero(mask)),
        cutoff_used=rel_cutoff,
    )


def pseudo_inverse(a: np.ndarray, rel_cutoff: float = REL_CUTOFF) -> np.ndarray:
    """Spectral pseudo-inverse; components below cutoff are dropped."""
    sys = eigh(a)
    w = sys.eigenvalues
    amax = float(np.abs(w).max()) if w.size else 0.0
    mask = np.abs(w) > rel_cutoff * amax
    inv = np.zeros_like(w)
    inv[mask] = 1.0 / w[mask]
    return _assemble(inv, sys.eigenvectors)


def psd_check(a: np.ndarray, tol: float = PSD_TOL):
    """Return (is_psd, min_eigenvalue) for a Hermitian matrix.

    The decision threshold is -tol * max(1, spectral norm); the exact
    minimum eigenvalue found is always returned.
    """
    w = np.linalg.eigvalsh(hermitize(np.asarray(a, dtype=complex)))
    mn = float(w[0]) if w.size else 0.0
    mx = float(np.abs(w).max()) if w.size else 0.0
    return mn >= -tol * max(1.0, mx), mn
