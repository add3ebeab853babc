"""Dense Hermitian linear algebra for small dimensions.

Everything downstream (fidelity operators, measurement construction,
certificates) reduces to eigendecompositions of complex Hermitian
matrices of dimension at most ~16. This module wraps the dense
eigensolver and derives from one decomposition the handful of spectral
primitives the rest of the package needs: operator square root,
pseudo-inverse, support and kernel projectors, all under one relative
rank cutoff. Positivity tests use eigenvalues alone.
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
    return float(np.linalg.svd(a, compute_uv=False)[0])


def nonzero_mask(w: np.ndarray, rel_cutoff: float = REL_CUTOFF,
                 indefinite: bool = False) -> np.ndarray:
    """The relative rank cutoff: which eigenvalues count as nonzero.

    An eigenvalue counts when it exceeds rel_cutoff times the largest
    one. For an indefinite spectrum (indefinite=True) magnitudes are
    compared instead, so negative eigenvalues can count too.
    """
    w = np.abs(w) if indefinite else np.asarray(w)
    top = float(w.max()) if w.size else 0.0
    return w > rel_cutoff * max(top, 0.0)


@dataclass(frozen=True)
class SupportDecomposition:
    """Orthogonal projectors onto the support and kernel of a PSD matrix."""

    support_projector: np.ndarray
    kernel_projector: np.ndarray
    rank: int


def _assemble(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    return hermitize((v * w[None, :]) @ v.conj().T)


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues and matching orthonormal eigenvector columns,
    and the spectral quantities derived from them, so that a caller who
    holds the decomposition of a matrix never decomposes it again."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def rank(self, rel_cutoff: float = REL_CUTOFF) -> int:
        return int(np.count_nonzero(nonzero_mask(self.eigenvalues, rel_cutoff)))

    def kernel_columns(self, rel_cutoff: float = REL_CUTOFF) -> np.ndarray:
        """Orthonormal basis of the below-cutoff eigenspace."""
        return self.eigenvectors[:, ~nonzero_mask(self.eigenvalues, rel_cutoff)]

    def support(self, rel_cutoff: float = REL_CUTOFF) -> SupportDecomposition:
        """Projectors onto the span of above-cutoff eigenvectors and its complement."""
        mask = nonzero_mask(self.eigenvalues, rel_cutoff)
        cols = self.eigenvectors[:, mask]
        p = hermitize(cols @ cols.conj().T)
        return SupportDecomposition(
            support_projector=p,
            kernel_projector=hermitize(np.eye(p.shape[0]) - p),
            rank=int(np.count_nonzero(mask)),
        )

    def sqrt(self, tol: float = PSD_TOL, rel_cutoff: float = REL_CUTOFF) -> np.ndarray:
        """Unique PSD square root; raises if the matrix is not PSD.

        Eigenvalues below rel_cutoff times the largest are zeroed, not
        just the negative ones. Taking sqrt of eigenvalue-scale noise
        would otherwise promote it above the rank cutoff and corrupt
        every support computed downstream.
        """
        w = self.eigenvalues
        lmax = float(w[-1]) if w.size else 0.0
        bound = tol * max(abs(w[0]) if w.size else 0.0, lmax, 1e-300)
        if w.size and w[0] < -bound:
            raise NotPositiveSemidefinite(
                f"matrix has eigenvalue {w[0]:.6e} below -{bound:.3e}",
                min_eigenvalue=float(w[0]),
            )
        w = np.where(nonzero_mask(w, rel_cutoff), w, 0.0)
        return _assemble(np.sqrt(w), self.eigenvectors)

    def pinv(self, rel_cutoff: float = REL_CUTOFF) -> np.ndarray:
        """Spectral pseudo-inverse; components below cutoff are dropped."""
        w = self.eigenvalues
        mask = nonzero_mask(w, rel_cutoff, indefinite=True)
        inv = np.zeros_like(w)
        inv[mask] = 1.0 / w[mask]
        return _assemble(inv, self.eigenvectors)


def eigh(h: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix. The eigenvector gauge is
    LAPACK's, a fixed function of the input; every consumer uses only
    gauge-invariant quantities."""
    h = np.asarray(h, dtype=complex)
    try:
        w, v = np.linalg.eigh(hermitize(h))
    except np.linalg.LinAlgError as exc:
        raise EigenDecompositionError(f"eigensolver did not converge: {exc}") from exc
    return EigenSystem(eigenvalues=w, eigenvectors=v)


def sqrt_psd(a: np.ndarray, tol: float = PSD_TOL, rel_cutoff: float = REL_CUTOFF) -> np.ndarray:
    """Unique PSD square root of a PSD matrix (see EigenSystem.sqrt)."""
    return eigh(a).sqrt(tol, rel_cutoff)


def support_decomposition(a: np.ndarray, rel_cutoff: float = REL_CUTOFF) -> SupportDecomposition:
    """Projectors onto the span of above-cutoff eigenvectors and its complement."""
    return eigh(a).support(rel_cutoff)


def pseudo_inverse(a: np.ndarray, rel_cutoff: float = REL_CUTOFF) -> np.ndarray:
    """Spectral pseudo-inverse; components below cutoff are dropped."""
    return eigh(a).pinv(rel_cutoff)


def psd_check(a: np.ndarray, tol: float = PSD_TOL):
    """Return (is_psd, min_eigenvalue) for a Hermitian matrix.

    The decision threshold is -tol * max(1, spectral norm); the exact
    minimum eigenvalue found is always returned.
    """
    w = np.linalg.eigvalsh(hermitize(np.asarray(a, dtype=complex)))
    mn = float(w[0]) if w.size else 0.0
    mx = float(np.abs(w).max()) if w.size else 0.0
    return mn >= -tol * max(1.0, mx), mn
