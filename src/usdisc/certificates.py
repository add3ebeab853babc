"""Optimality certificates for error-free discrimination measurements.

A candidate measurement is optimal exactly when a PSD witness operator
Z exists that annihilates the inconclusive element, agrees with the
weighted states on the conclusive elements, dominates them on the
kernel compressions, and whose trace equals the success probability.
In the fidelity-bound regime the witness has a closed construction from
a polar decomposition. For the projective measurement of an equal-prior
involution pair it has a closed form on the span of the two conclusive
directions. When the two states share one support, giving up is
optimal and Z = 0 certifies it.

fit_certificate, the gate of every solve, decides each witness it tries
by certify_stack, without eigenvalues; verify_certificate gives the
residuals that certify prints (witness_report, from the spectra of
condition_matrices). All of them also take a stacked problem.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    all_true,
    as_double,
    at_least,
    dagger,
    eigh,
    eigvalsh,
    form,
    gram_norm,
    hermitize,
    inner,
    item_or_array,
    matvec,
    nonzero_mask,
    outer,
    trace,
    unstack,
)
from .problem import (
    Povm,
    UsdProblem,
    ValidationReport,
    failure_probability,
    povm_report,
)

CERT_TOL = 1e-7


@dataclass
class OptimalityCertificate:
    z: np.ndarray
    success_trace: float = 0.0


def fidelity_witness(p: UsdProblem) -> np.ndarray:
    """Closed-form witness for the regime where the fidelity bound is tight.

    Z = Y Y^H with Y = sqrt(eta1) sqrt(rho1) - sqrt(eta0) sqrt(rho0) polar,
    for a polar unitary of sqrt(rho0) sqrt(rho1). That expands to
    eta0 rho0 + eta1 rho1 - sqrt(eta0 eta1) (X + X^H) with
    X = sqrt(rho0) polar sqrt(rho1), and the unitary enters X only through
    B0^H polar B1 = w v^H, the polar factor of the support core that the
    problem's fidelity pair holds. So X is built on the support factors
    as X0 (w v^H) X1^H, and how the unitary is completed off the supports
    leaves the certificate conditions untouched.
    """
    x = p.rho0.factor @ p.fidelity_pair.core_polar @ dagger(p.rho1.factor)
    return (p.eta0 * p.rho0.matrix + p.eta1 * p.rho1.matrix
            - math.sqrt(p.eta0 * p.eta1) * (x + dagger(x)))


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


def _symmetrize(a: np.ndarray):
    """a <- (a + a^H) / 2 over a stack of matrix stacks, by real and
    imaginary part, each in place beside a copy of its transpose; one
    entry of the first axis at a time, where a + dagger(a) takes two
    stacks."""
    for part in a if a.ndim > 3 else (a,):
        re = part.real
        re += re.swapaxes(-1, -2).copy()
        if a.dtype.kind == "c":
            im = part.imag
            im -= im.swapaxes(-1, -2).copy()
    a *= 0.5


def condition_matrices(p: UsdProblem, m: Povm, z: np.ndarray) -> np.ndarray:
    """Z, the two kernel compressions, the Gram matrix of Z Eq and the two
    equality residuals, symmetrized: each is written into one stack as
    soon as it is formed."""
    r0, r1 = p.rho0.matrix, p.rho1.matrix
    k0 = p.rho0.support.kernel_projector
    k1 = p.rho1.support.kernel_projector
    a = np.empty((6,) + z.shape, np.result_type(z, m.eq, r0, r1, k0, k1, m.e0, m.e1))
    a[0] = z
    d = z - p.eta0 * r0
    np.matmul(k1 @ d, k1, out=a[1])
    np.matmul(m.e0 @ d, m.e0, out=a[4])
    d = z - p.eta1 * r1
    np.matmul(k0 @ d, k0, out=a[2])
    np.matmul(m.e1 @ d, m.e1, out=a[5])
    d = z @ m.eq
    np.matmul(dagger(d), d, out=a[3])
    _symmetrize(a)
    return a


def _check_trace_identity(rep: ValidationReport, z: np.ndarray, q):
    """Check the trace identity tr Z = 1 - q and return tr Z."""
    tz = trace(z).real
    rep.check("trace_identity", abs(tz - (1.0 - q)), CERT_TOL)
    return tz


def verify_certificate(p: UsdProblem, m: Povm, c: OptimalityCertificate) -> ValidationReport:
    """Evaluate all witness conditions and the trace identity.

    Equalities are reported as operator norms, inequalities as minimum
    eigenvalues of the kernel compressions (with the violation amount
    checked against CERT_TOL). All six matrices take one eigenvalue call.
    """
    z = hermitize(as_double(c.z))
    w = eigvalsh(condition_matrices(p, m, z))
    return witness_report(c, z, w, failure_probability(p, m)[0])


def witness_report(c: OptimalityCertificate, z: np.ndarray, w, q) -> ValidationReport:
    """verify_certificate's report from the hermitized witness z, the
    spectra w of its condition_matrices (a caller's larger call may take
    them) and q."""
    rep = ValidationReport()
    # an equality residual's norm is the larger magnitude at the ends of its spectrum
    zmin, mn1, mn0 = unstack(w[:3, ..., 0])
    annihilation = item_or_array(gram_norm(w[3]))
    equality0, equality1 = unstack(np.maximum(-w[4:, ..., 0], w[4:, ..., -1]))
    rep.residuals["z_min_eig"] = zmin
    rep.check("z_psd", at_least(-zmin, 0.0), CERT_TOL)
    rep.check("z_annihilates_eq", annihilation, CERT_TOL)
    rep.check("e0_equality", equality0, CERT_TOL)
    rep.check("e1_equality", equality1, CERT_TOL)
    rep.residuals["kernel1_inequality_min_eig"] = mn1
    rep.residuals["kernel0_inequality_min_eig"] = mn0
    rep.check("kernel1_inequality", at_least(-mn1, 0.0), CERT_TOL)
    rep.check("kernel0_inequality", at_least(-mn0, 0.0), CERT_TOL)
    tz = _check_trace_identity(rep, z, q)
    rep.check("success_trace_consistency", abs(tz - c.success_trace), 1e-12)
    return rep


def certify_stack(p: UsdProblem, m: Povm, z: np.ndarray) -> Optional[OptimalityCertificate]:
    """The certificate of witness z if validate_povm passes the measurement
    m and verify_certificate passes z, on every instance of a stack, else
    None; decided without eigenvalues.

    The trace identity and validate_povm's entrywise checks are taken as
    they are, every other check at half its bound: a stack that passes passes
    both checks on every instance alone, and one that fails may still pass
    them. A PSD condition holds when the Cholesky factorisation of its
    matrix, shifted by half its bound, succeeds: E0, E1 and Eq at half
    validate_povm's bound, Z and the kernel compressions at half CERT_TOL,
    three matrices to a stacked call. A norm condition holds when a
    Frobenius norm, which bounds the operator norm, is within half CERT_TOL:
    that of Z Eq, from the trace of its Gram matrix, and that of each
    equality residual. Rounding in eigvalsh and in the factorisation, about
    1e-15 at these scales, stays far below the half margins.
    """
    rep, bounds = povm_report(p, m)
    zh = hermitize(as_double(z))
    # symmetrizing keeps the real diagonal, so this is tr Z of z as given
    success = item_or_array(_check_trace_identity(rep, zh, failure_probability(p, m)[0]))
    if not rep.ok:
        return None
    a = condition_matrices(p, m, zh)
    norms = np.sqrt(trace(a[3]).real), np.linalg.norm(a[4:], axis=(-2, -1))
    if not all(all_true(n <= 0.5 * CERT_TOL) for n in norms):
        return None
    # the elements take the slots the norm conditions no longer need
    a[3], a[4], a[5] = m.e0, m.e1, m.eq
    _symmetrize(a[3:])
    d = a.shape[-1]
    diagonal = a.reshape(a.shape[:-2] + (d * d,))[..., ::d + 1]
    diagonal[:3] += 0.5 * CERT_TOL
    diagonal[3:] += 0.5 * np.array(bounds)[..., None]
    # three matrices a call: a factor of all six beside the stack raised
    # the sweep's peak resident set by about 0.15 MB
    try:
        for part in (a[:3], a[3:]):
            np.linalg.cholesky(part)
    except np.linalg.LinAlgError:
        return None
    return OptimalityCertificate(z=z, success_trace=success)


def _candidates(p: UsdProblem, m: Povm):
    """The closed-form witnesses in turn, each built only once the one
    before it has failed."""
    yield fidelity_witness(p)
    if p.gu_involution is not None and p.dim == 4:
        sys = eigh(m.e0)
        if all_true(np.count_nonzero(nonzero_mask(sys.eigenvalues), axis=-1) == 1):
            # the witness does not depend on the phase of E0's top eigenvector
            yield symmetric_projective_witness(p, sys.eigenvectors[..., :, -1], p.gu_involution)
    # giving up is optimal only when the states share one support
    yield np.zeros_like(as_double(m.eq))


def fit_certificate(p: UsdProblem, m: Povm,
                    candidate: Optional[np.ndarray] = None) -> Optional[OptimalityCertificate]:
    """The certificate of the first witness that certify_stack passes with
    the given measurement.

    A given candidate, such as a branch's closed form or the oracle's
    dual, is tried alone; without one, the closed forms in turn: the
    fidelity-bound witness, the symmetric projective witness when E0 has
    rank 1 on a 4D involution pair, and Z = 0. A stack needs one witness
    for every instance. None means "not certified", not "refuted".
    """
    for z in _candidates(p, m) if candidate is None else (candidate,):
        cert = certify_stack(p, m, z)
        if cert is not None:
            return cert
    return None
