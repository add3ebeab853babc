"""Shared instance generators for the test suite.

Everything is seeded through numpy Generators passed in by the caller so
test runs stay reproducible.
"""

import numpy as np

from usdisc import DensityMatrix, Povm, UsdProblem, rank_condition_check
from usdisc.linalg import eigh, hermitize, sqrt_psd


def rand_subspace_density(rng, d, r):
    """Random rank-r density matrix on a random r-dim subspace of C^d."""
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    q_, _ = np.linalg.qr(g)
    h = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    uu, _ = np.linalg.qr(h)
    spec = rng.uniform(0.3, 1.0, r)
    core = (uu * spec) @ uu.conj().T
    m = hermitize(q_ @ core @ q_.conj().T)
    return m / np.trace(m).real



def always_fail(d):
    """The measurement that never identifies either state."""
    zero = np.zeros((d, d), complex)
    return Povm(e0=zero, e1=zero.copy(), eq=np.eye(d, dtype=complex))


def _supports_disjoint(rho0, rho1, r0, r1):
    s0 = eigh(rho0).support().support_projector
    s1 = eigh(rho1).support().support_projector
    return np.linalg.matrix_rank(s0 + s1, tol=1e-8) == r0 + r1


def random_problem(rng, d):
    """Valid problem with disjoint supports and a random prior."""
    while True:
        r0 = int(rng.integers(1, d))
        r1 = int(rng.integers(1, d - r0 + 1))
        rho0 = rand_subspace_density(rng, d, r0)
        rho1 = rand_subspace_density(rng, d, r1)
        if not _supports_disjoint(rho0, rho1, r0, r1):
            continue
        eta0 = float(rng.uniform(0.05, 0.95))
        return UsdProblem(
            DensityMatrix.from_matrix(rho0),
            DensityMatrix.from_matrix(rho1),
            eta0,
            1.0 - eta0,
        )


def rank_failing_problem(rng, d):
    """random_problem drawn until its rank conditions fail, so that only
    the oracle applies."""
    while True:
        p = random_problem(rng, d)
        if not rank_condition_check(p).both_psd:
            return p


def first_class_instance(rng, d):
    """Problem whose prior is placed strictly inside the tight-bound window.

    The window endpoints come from the largest eigenvalues of the
    whitened fidelity operators; drawing the prior ratio strictly
    between them guarantees both rank-condition operators are PSD.
    """
    while True:
        r0n = int(rng.integers(1, d))
        r1n = d - r0n
        rho0 = rand_subspace_density(rng, d, r0n)
        rho1 = rand_subspace_density(rng, d, r1n)
        if np.linalg.eigvalsh(hermitize(rho0 + rho1))[0] < 1e-8:
            continue
        s0 = sqrt_psd(rho0)
        s1 = sqrt_psd(rho1)
        f0 = sqrt_psd(hermitize(s0 @ rho1 @ s0))
        f1 = sqrt_psd(hermitize(s1 @ rho0 @ s1))
        s0inv = eigh(s0).pinv()
        s1inv = eigh(s1).pinv()
        hi = 1.0 / eigh(hermitize(s0inv @ f0 @ s0inv)).eigenvalues.max()
        lo = eigh(hermitize(s1inv @ f1 @ s1inv)).eigenvalues.max()
        if lo >= 0.95 * hi:
            # window too thin to place a prior safely inside
            continue
        u = rng.uniform(0.1, 0.9)
        gam = lo + u * (hi - lo)
        eta1 = gam ** 2 / (1 + gam ** 2)
        return UsdProblem(
            DensityMatrix.from_matrix(rho0),
            DensityMatrix.from_matrix(rho1),
            1 - eta1,
            eta1,
        )


def random_gu4_problem(rng):
    """Equal-prior dim-4 pair relating by a random Hermitian involution."""
    while True:
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        v, _ = np.linalg.qr(g)
        u = hermitize(v @ np.diag([1.0, 1.0, -1.0, -1.0]) @ v.conj().T)
        b = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        m = hermitize(b @ b.conj().T)
        rho0 = m / np.trace(m).real
        rho1 = hermitize(u @ rho0 @ u)
        if not _supports_disjoint(rho0, rho1, 2, 2):
            continue
        return UsdProblem(
            DensityMatrix.from_matrix(rho0),
            DensityMatrix.from_matrix(rho1),
            0.5,
            0.5,
            gu_involution=u,
        )


def random_pure_pair(rng, d):
    """Equal-prior pure-state pair with overlap bounded away from 0 and 1."""
    while True:
        a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        a = a / np.linalg.norm(a)
        b = b / np.linalg.norm(b)
        if not 0.1 <= abs(a.conj() @ b) <= 0.9:
            continue
        rho0 = np.outer(a, a.conj())
        rho1 = np.outer(b, b.conj())
        return UsdProblem(
            DensityMatrix.from_matrix(hermitize(rho0)),
            DensityMatrix.from_matrix(hermitize(rho1)),
            0.5,
            0.5,
        ), a, b
