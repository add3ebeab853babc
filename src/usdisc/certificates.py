"""Optimality certificates for error-free discrimination measurements.

A candidate measurement is optimal exactly when a PSD witness operator
Z exists that annihilates the inconclusive element, agrees with the
weighted states on the conclusive elements, dominates them on the
kernel compressions, and whose trace equals the success probability.
In the fidelity-bound regime the witness has a closed construction from
a polar decomposition. For the projective measurement of an equal-prior
involution pair it has a closed form on the span of the two conclusive
directions. Otherwise, and whenever a candidate fails verification, the
witness is fitted numerically in the linear subspace the equality
conditions leave free.

The two closed forms and verify_certificate also take a stacked
problem; the numerical fit works on one problem at a time.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .linalg import (
    at_least,
    dagger,
    eigh,
    form,
    hermitize,
    inner,
    item_or_array,
    matvec,
    outer,
    spectral_norm,
    trace,
    unstack,
)
from .problem import Povm, UsdProblem, ValidationReport, failure_probability

CERT_TOL = 1e-7


@dataclass
class OptimalityCertificate:
    z: np.ndarray
    residuals: dict = field(default_factory=dict)
    success_trace: float = 0.0


def build_fidelity_certificate(p: UsdProblem) -> OptimalityCertificate:
    """Closed-form witness for the regime where the fidelity bound is tight.

    The unitary comes from a polar split of sqrt(rho0) sqrt(rho1); the
    SVD completion is used on any rank-deficient part, which leaves the
    certificate conditions untouched.
    """
    s0 = p.rho0.sqrt
    s1 = p.rho1.sqrt
    w, _, vh = np.linalg.svd(s0 @ s1)
    vpol = w @ vh
    ydag = -math.sqrt(p.eta0) * dagger(vpol) @ s0 + math.sqrt(p.eta1) * s1
    z = hermitize(dagger(ydag) @ ydag)
    return OptimalityCertificate(z=z, success_trace=item_or_array(trace(z).real))


def _witness_cross_term(m: complex, t: complex) -> float:
    # Python arithmetic, one instance at a time: Python's abs(t) ** 2 (libm's
    # pow) and numpy's square of an array can differ in the last bit, and a
    # witness must not depend on whether its problem came in a stack
    m, t = complex(m), complex(t)
    t2 = abs(t) ** 2
    # t = 0 leaves c free of the kernel condition, and c = 0 keeps Z PSD
    return -(m * t.conjugate()).real / t2 if t2 > 0.0 else 0.0


def symmetric_projective_witness(p: UsdProblem, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Closed-form witness for the projective measurement E0 = |x><x|,
    E1 = U E0 U of an equal-prior involution pair.

    Annihilating the inconclusive element confines Z to span{x, Ux}; the
    two equality conditions fix both diagonal entries at
    alpha = eta0 <x|rho0|x>, and averaging with U Z U keeps a witness a
    witness, so the off-diagonal c can be taken real. In the kernel of
    rho1, spanned by x and its orthogonal partner x_perp, the compression
    of Z - eta0 rho0 has a zero (x, x) entry, so positivity forces its
    (x, x_perp) entry to vanish; that fixes c. The rho0-kernel inequality
    is the U-image of the rho1 one.
    """
    y = matvec(u, x)
    alpha = p.eta0 * form(x, p.rho0.matrix, x).real
    # x lies in the two-dimensional kernel of rho1; in a basis of that
    # kernel, (-conj a1, conj a0) is orthogonal to x's coordinates (a0, a1)
    kcols = p.rho1.spectrum.kernel_columns()
    perp = matvec(dagger(kcols), x)[..., ::-1].conj()
    perp[..., 0] = -perp[..., 0]
    x_perp = matvec(kcols, perp)
    m = -p.eta0 * form(x, p.rho0.matrix, x_perp)
    t = inner(y, x_perp)
    c = np.reshape([_witness_cross_term(*mt) for mt in zip(np.ravel(m), np.ravel(t))],
                   np.shape(m))
    xx, yy, xy = outer(x, x), outer(y, y), outer(x, y)
    return alpha[..., None, None] * (xx + yy) + c[..., None, None] * (xy + dagger(xy))


def verify_certificate(p: UsdProblem, m: Povm, c: OptimalityCertificate,
                       tol: float = CERT_TOL) -> ValidationReport:
    """Evaluate all witness conditions and the trace identity.

    Equalities are reported as operator norms, inequalities as minimum
    eigenvalues of the kernel compressions (with the violation amount
    checked against tol).
    """
    rep = ValidationReport()
    z = hermitize(np.asarray(c.z, dtype=complex))
    r0, r1 = p.rho0.matrix, p.rho1.matrix
    k0 = p.rho0.support.kernel_projector
    k1 = p.rho1.support.kernel_projector

    # one stacked eigenvalue call for the three inequalities (hermitize
    # leaves the already Hermitian z as it is) and one stacked SVD for
    # the three equalities
    zmin, mn1, mn0 = unstack(np.linalg.eigvalsh(hermitize(np.array([
        z, k1 @ (z - p.eta0 * r0) @ k1, k0 @ (z - p.eta1 * r1) @ k0])))[..., 0])
    annihilation, equality0, equality1 = unstack(spectral_norm(np.array([
        z @ m.eq, m.e0 @ (z - p.eta0 * r0) @ m.e0, m.e1 @ (z - p.eta1 * r1) @ m.e1])))
    rep.residuals["z_min_eig"] = zmin
    rep.check("z_psd", at_least(-zmin, 0.0), tol)
    rep.check("z_annihilates_eq", annihilation, tol)
    rep.check("e0_equality", equality0, tol)
    rep.check("e1_equality", equality1, tol)
    rep.residuals["kernel1_inequality_min_eig"] = mn1
    rep.residuals["kernel0_inequality_min_eig"] = mn0
    rep.check("kernel1_inequality", at_least(-mn1, 0.0), tol)
    rep.check("kernel0_inequality", at_least(-mn0, 0.0), tol)

    q, _, _ = failure_probability(p, m)
    tz = trace(z).real
    rep.check("trace_identity", abs(tz - (1.0 - q)), tol)
    rep.check("success_trace_consistency", abs(tz - c.success_trace), 1e-12)
    return rep


def _herm_basis(n: int):
    """Real orthogonal basis of the n x n Hermitian matrices."""
    out = []
    for i in range(n):
        m = np.zeros((n, n), complex)
        m[i, i] = 1.0
        out.append(m)
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), complex)
            m[i, j] = m[j, i] = 1.0 / math.sqrt(2.0)
            out.append(m)
            m = np.zeros((n, n), complex)
            m[i, j] = -1j / math.sqrt(2.0)
            m[j, i] = 1j / math.sqrt(2.0)
            out.append(m)
    return out


def fit_certificate(p: UsdProblem, m: Povm, tol: float = CERT_TOL,
                    iters: int = 4000,
                    candidate: Optional[np.ndarray] = None) -> Optional[OptimalityCertificate]:
    """Search for a witness certifying the given measurement.

    A candidate witness, such as the oracle's dual solution or the
    closed-form symmetric witness, is returned as it is when it
    verifies; the search runs only when it is absent or fails.

    The annihilation condition restricts Z to the orthogonal complement
    of the inconclusive element's support, so the search runs in that
    compressed Hermitian space: least squares for the two equality
    conditions, then an eigenvalue-margin ascent over the equality map's
    nullspace. A valid witness sits exactly on the PSD boundary, so the
    ascent uses Polyak steps with target zero; they contract geometrically
    where plain diminishing-step subgradient ascent crawls. Each cone
    constraint is evaluated in an orthonormal frame of its own subspace,
    which keeps structural zero eigenvalues of the compressions out of
    the margin. Absence of a result means "not certified", which is
    weaker than "refuted".
    """
    if candidate is not None:
        cert = OptimalityCertificate(z=candidate,
                                     success_trace=item_or_array(trace(candidate).real))
        rep = verify_certificate(p, m, cert, tol)
        if rep.ok:
            cert.residuals = rep.residuals
            return cert
    if m.eq.ndim > 2:
        # the search below works on one problem at a time
        return None
    d = p.dim
    r0, r1 = p.rho0.matrix, p.rho1.matrix
    c = eigh(m.eq).kernel_columns()
    k = c.shape[1]
    if k == 0:
        # witness would have to vanish; only optimal for the trivial case
        z = np.zeros((d, d), complex)
        cert = OptimalityCertificate(z=z, success_trace=0.0)
        rep = verify_certificate(p, m, cert, tol)
        cert.residuals = rep.residuals
        return cert if rep.ok else None
    basis = _herm_basis(k)
    lifted = [hermitize(c @ b @ c.conj().T) for b in basis]

    rows, rhs = [], []
    for ei, etai, ri in ((m.e0, p.eta0, r0), (m.e1, p.eta1, r1)):
        target = ei @ (etai * ri) @ ei
        cols = []
        for zb in lifted:
            mm = ei @ zb @ ei
            cols.append(np.concatenate([mm.real.ravel(), mm.imag.ravel()]))
        rows.append(np.array(cols).T)
        rhs.append(np.concatenate([target.real.ravel(), target.imag.ravel()]))
    amat = np.vstack(rows)
    bvec = np.concatenate(rhs)
    theta, *_ = np.linalg.lstsq(amat, bvec, rcond=None)
    if np.linalg.norm(amat @ theta - bvec) > 1e-9:
        return None

    u_, s_, vt_ = np.linalg.svd(amat)
    ncons = int((s_ > 1e-12 * s_[0]).sum()) if s_.size and s_[0] > 0 else 0
    nullspace = vt_[ncons:].T
    nnull = nullspace.shape[1]
    basis_arr = np.array(basis)
    lifted_arr = np.array(lifted)

    def witness(th):
        return hermitize(np.tensordot(th, lifted_arr, axes=(0, 0)))

    best_th = theta.copy()
    if nnull > 0:
        # frames: Z lives on the inconclusive kernel, each inequality on
        # the kernel of the state it compresses by
        zoff = witness(theta)
        null_lift = np.tensordot(nullspace.T, lifted_arr, axes=(1, 0))
        blocks = [(
            hermitize(np.tensordot(theta, basis_arr, axes=(0, 0))),
            np.tensordot(nullspace.T, basis_arr, axes=(1, 0)),
        )]
        for fr, off in ((p.rho1.spectrum.kernel_columns(), -p.eta0 * r0),
                        (p.rho0.spectrum.kernel_columns(), -p.eta1 * r1)):
            if fr.shape[1] == 0:
                continue
            off_t = hermitize(fr.conj().T @ (zoff + off) @ fr)
            dirs_t = np.einsum("ai,jab,bk->jik", fr.conj(), null_lift, fr)
            blocks.append((off_t, dirs_t))

        def margin_and_grad(y):
            worst = None
            for off_t, dirs_t in blocks:
                mat = hermitize(off_t + np.tensordot(y, dirs_t, axes=(0, 0)))
                w, v = np.linalg.eigh(mat)
                if worst is None or w[0] < worst[0]:
                    worst = (float(w[0]), v[:, 0], dirs_t)
            g0, v, dirs_t = worst
            grad = np.einsum("a,jab,b->j", v.conj(), dirs_t, v).real
            return g0, grad

        y = np.zeros(nnull)
        g, grad = margin_and_grad(y)
        best_g, best_y = g, y.copy()
        it = 0
        it_best = 0
        while g < -1e-13 and it < iters and it - it_best < 150:
            it += 1
            ng2 = float(grad @ grad)
            if ng2 < 1e-28:
                break
            y = y + (-g / ng2) * grad
            g, grad = margin_and_grad(y)
            if g > best_g + 1e-3 * abs(best_g):
                best_g, best_y = g, y.copy()
                it_best = it
        if g > best_g:
            best_y = y
        best_th = theta + nullspace @ best_y

    z = witness(best_th)
    cert = OptimalityCertificate(z=z, success_trace=float(np.trace(z).real))
    rep = verify_certificate(p, m, cert, tol)
    cert.residuals = rep.residuals
    return cert if rep.ok else None
