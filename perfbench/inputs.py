"""Seeded inputs and numpy reference values for the benchmark.

This module imports numpy and the standard library only. It must never
import usdisc: the inputs and the reference answers they are checked
against have to be independent of the code under test.

Every problem is emitted as the JSON text that `usdisc solve --input`
reads (sorted keys, paired "re"/"im" arrays), so the digest over those
texts identifies the exact bytes the program was given. The generators
yield each text together with its Case, so a caller can write the text
out and keep only the small Case.
"""

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

REL_CUTOFF = 1e-10

# Reference decisions (rank conditions, regime) are taken only with this
# much room on either side, so the program's own tolerances cannot flip
# them.
MARGIN = 1e-6

# The fallback panel is drawn once from this fixed seed; the run seed
# then draws the basis each panel pair is presented in (see
# fallback_cases).
PANEL_SEED = 702022
PANEL_DIMS = (3, 4, 5)

BB84_GRID = (0.05, 3.0, 0.05)


@dataclass(frozen=True)
class Case:
    """What a correct solve of one problem file must show."""

    kind: str
    expected_branch: str
    floor: float


def herm(a):
    return 0.5 * (a + a.conj().T)


def _spectral(a, fn, cut=REL_CUTOFF):
    w, v = np.linalg.eigh(herm(a))
    lmax = max(float(w[-1]), 0.0)
    keep = w > cut * lmax
    f = np.zeros_like(w)
    f[keep] = fn(w[keep])
    return herm((v * f) @ v.conj().T)


def sqrt_psd(a):
    return _spectral(a, np.sqrt)


def pinv_psd(a):
    return _spectral(a, lambda w: 1.0 / w)


def rank(a):
    w = np.linalg.eigvalsh(herm(a))
    return int((w > REL_CUTOFF * max(float(w[-1]), 0.0)).sum())


def min_eig(a):
    return float(np.linalg.eigvalsh(herm(a))[0])


def fidelity_ops(rho0, rho1):
    s0 = sqrt_psd(rho0)
    s1 = sqrt_psd(rho1)
    return sqrt_psd(s0 @ rho1 @ s0), sqrt_psd(s1 @ rho0 @ s1)


def fidelity_floor(rho0, rho1, eta0, eta1):
    """2 sqrt(eta0 eta1) F: no error-free measurement fails less often."""
    f0, _ = fidelity_ops(rho0, rho1)
    return 2.0 * math.sqrt(eta0 * eta1) * float(np.trace(f0).real)


def support_min_eig(a, rho):
    """Minimum eigenvalue of a compressed to the support of rho, which
    leaves out the structural zeros on rho's kernel."""
    w, v = np.linalg.eigh(herm(rho))
    frame = v[:, w > REL_CUTOFF * max(float(w[-1]), 0.0)]
    return min_eig(frame.conj().T @ a @ frame)


def rank_condition_min(rho0, rho1, eta0, eta1):
    """Smaller of the two rank-condition operators' minimum eigenvalues
    on the supports they live on; the fidelity floor is attained exactly
    when it is >= 0."""
    f0, f1 = fidelity_ops(rho0, rho1)
    gamma = math.sqrt(eta1 / eta0)
    return min(support_min_eig(rho0 - gamma * f0, rho0),
               support_min_eig(rho1 - f1 / gamma, rho1))


def haar_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def rand_subspace_density(rng, d, r):
    """Random rank-r density matrix on a random r-dim subspace of C^d."""
    q = haar_unitary(rng, d)[:, :r]
    core_u = haar_unitary(rng, r)
    core = (core_u * rng.uniform(0.3, 1.0, r)) @ core_u.conj().T
    m = herm(q @ core @ q.conj().T)
    return m / np.trace(m).real


def supports_disjoint(rho0, rho1):
    return rank(rho0 + rho1) == rank(rho0) + rank(rho1)


def _matrix_obj(m):
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def problem_text(rho0, rho1, eta0, u=None):
    obj = {
        "dim": int(rho0.shape[0]),
        "eta0": float(eta0),
        "eta1": 1.0 - float(eta0),
        "rho0": _matrix_obj(rho0),
        "rho1": _matrix_obj(rho1),
    }
    if u is not None:
        obj["u"] = _matrix_obj(u)
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def first_class_case(rng, d):
    """Pair of complementary-rank states with the prior ratio drawn
    strictly inside the window where both rank conditions hold."""
    while True:
        r0 = int(rng.integers(1, d))
        rho0 = rand_subspace_density(rng, d, r0)
        rho1 = rand_subspace_density(rng, d, d - r0)
        if min_eig(rho0 + rho1) < 1e-8:
            continue
        f0, f1 = fidelity_ops(rho0, rho1)
        s0inv = pinv_psd(sqrt_psd(rho0))
        s1inv = pinv_psd(sqrt_psd(rho1))
        hi = 1.0 / float(np.linalg.eigvalsh(herm(s0inv @ f0 @ s0inv))[-1])
        lo = float(np.linalg.eigvalsh(herm(s1inv @ f1 @ s1inv))[-1])
        if lo >= 0.95 * hi:
            continue
        gam = lo + rng.uniform(0.1, 0.9) * (hi - lo)
        eta0 = 1.0 - gam * gam / (1.0 + gam * gam)
        if rank_condition_min(rho0, rho1, eta0, 1.0 - eta0) < MARGIN:
            continue
        return problem_text(rho0, rho1, eta0), Case(
            kind="first-class",
            expected_branch="FirstClassFidelity",
            floor=fidelity_floor(rho0, rho1, eta0, 1.0 - eta0),
        )


def gu_case(rng, projective: bool):
    """Equal-prior rank-2 pair in dimension 4 related by a random
    Hermitian involution, drawn until it lies in the requested regime."""
    while True:
        v = haar_unitary(rng, 4)
        u = herm(v @ np.diag([1.0, 1.0, -1.0, -1.0]) @ v.conj().T)
        b = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        m = herm(b @ b.conj().T)
        rho0 = m / np.trace(m).real
        rho1 = herm(u @ rho0 @ u)
        if not supports_disjoint(rho0, rho1):
            continue
        f0, _ = fidelity_ops(rho0, rho1)
        gap = support_min_eig(rho0 - f0, rho0)
        if (gap <= -MARGIN) != projective or abs(gap) < MARGIN:
            continue
        return problem_text(rho0, rho1, 0.5, u), Case(
            kind="gu-projective" if projective else "gu-first-class",
            expected_branch="GuProjective" if projective else "FirstClassFidelity",
            floor=fidelity_floor(rho0, rho1, 0.5, 0.5),
        )


def solve_certify_cases(seed, count):
    """Request stream for solve-certify, as (text, Case) pairs: half
    first-class pairs with d = 2..8, a quarter involution pairs in each
    regime, interleaved."""
    rng = np.random.default_rng([seed, 1])
    for i in range(count):
        slot = i % 4
        if slot < 2:
            yield first_class_case(rng, int(rng.integers(2, 9)))
        else:
            yield gu_case(rng, projective=(slot == 3))


def _fallback_pair(rng):
    while True:
        d = int(rng.integers(3, 6))
        r0 = int(rng.integers(1, d))
        r1 = int(rng.integers(1, d - r0 + 1))
        rho0 = rand_subspace_density(rng, d, r0)
        rho1 = rand_subspace_density(rng, d, r1)
        if not supports_disjoint(rho0, rho1):
            continue
        eta0 = float(rng.uniform(0.05, 0.95))
        if rank_condition_min(rho0, rho1, eta0, 1.0 - eta0) > -MARGIN:
            continue
        return rho0, rho1, eta0


def fallback_cases(seed, count):
    """Request stream for oracle-fallback, as (text, Case) pairs.

    The oracle's cost varies widely between random pairs and a run has
    room for only a couple of dozen solves, so drawing fresh pairs per
    seed would let the seed, not the code, set the figures. The pairs
    (d = 3..5, random priors, rank conditions failing) are therefore a
    fixed panel: the first pair drawn from PANEL_SEED for each d.
    Requests cycle through it, and the run seed draws a fresh
    Haar-random basis for every request. The optimum is basis
    independent; the matrices the program sees, and the oracle's path
    through them, are not.
    """
    panel_rng = np.random.default_rng(PANEL_SEED)
    panel = {}
    while len(panel) < len(PANEL_DIMS):
        rho0, rho1, eta0 = _fallback_pair(panel_rng)
        panel.setdefault(rho0.shape[0], (rho0, rho1, eta0))
    rng = np.random.default_rng([seed, 3])
    for i in range(count):
        rho0, rho1, eta0 = panel[PANEL_DIMS[i % len(PANEL_DIMS)]]
        w = haar_unitary(rng, rho0.shape[0])
        r0 = herm(w @ rho0 @ w.conj().T)
        r1 = herm(w @ rho1 @ w.conj().T)
        r0 = r0 / np.trace(r0).real
        r1 = r1 / np.trace(r1).real
        yield problem_text(r0, r1, eta0), Case(
            kind=f"fallback-d{rho0.shape[0]}",
            expected_branch="OracleOnly",
            floor=fidelity_floor(r0, r1, eta0, 1.0 - eta0),
        )


def small_rotation(rng, d, angle=0.05):
    """Unitary exp(i angle H) for a random Hermitian H of unit norm."""
    h = herm(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    w, v = np.linalg.eigh(h)
    w = w / np.abs(w).max()
    return (v * np.exp(1j * angle * w)) @ v.conj().T


def bb84_grid():
    start, end, step = BB84_GRID
    count = int(math.floor((end - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def q_basis_closed_form(mu):
    return math.exp(-mu) * (abs(math.cos(mu)) + abs(math.sin(mu)))


def bit_gap_closed_form(mu):
    """Lower eigenvalue of the bit pair's fidelity-gap operator; the bit
    question leaves the fidelity branch where it turns negative."""
    root = math.sqrt(1.0 + math.exp(2.0 * mu) - 2.0 * math.exp(mu) * math.cos(2.0 * mu))
    return 0.5 * (1.0 - math.exp(-mu) - math.exp(-2.0 * mu) * root)


class Digest:
    """Digest of a sequence of input texts, fed one text at a time."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, text):
        self._h.update(text.encode())
        self._h.update(b"\0")

    def hex(self):
        return self._h.hexdigest()[:16]


def reference_pair():
    """Fixed d = 4 rank-2 pair and priors for the reference probe."""
    rng = np.random.default_rng(11)
    return (rand_subspace_density(rng, 4, 2), rand_subspace_density(rng, 4, 2), 0.4, 0.6)


def reference_batch():
    """Fixed batch of 16 Hermitian 4 x 4 matrices for the reference probe."""
    rng = np.random.default_rng(12)
    a = rng.standard_normal((16, 4, 4)) + 1j * rng.standard_normal((16, 4, 4))
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def warmup_text():
    """Fixed first-class problem used for warm-up and set-up timing."""
    rng = np.random.default_rng(0)
    return first_class_case(rng, 2)[0]
