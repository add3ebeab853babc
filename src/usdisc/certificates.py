"""Optimality certificates for error-free discrimination measurements.

A candidate measurement is optimal exactly when a PSD witness operator
Z exists that annihilates the inconclusive element, agrees with the
weighted states on the conclusive elements, dominates them on the
kernel compressions, and whose trace equals the success probability.
In the fidelity-bound regime the witness has a closed construction from
a polar decomposition. For the projective measurement of an equal-prior
involution pair it has a closed form on the span of the two conclusive
directions. When the two states share one support, giving up is
optimal and Z = 0 certifies it. fit_certificate tries these in turn
after any given candidate, such as the oracle's dual solution; it
searches no further.

The closed forms, verify_certificate and fit_certificate also take a
stacked problem.
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bounds import FidelityData
from .linalg import (
    all_true,
    as_double,
    at_least,
    dagger,
    eigh,
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
from .problem import Povm, UsdProblem, ValidationReport, failure_probability

CERT_TOL = 1e-7


@dataclass
class OptimalityCertificate:
    z: np.ndarray
    residuals: dict = field(default_factory=dict)
    success_trace: float = 0.0


def build_fidelity_certificate(p: UsdProblem, fd: FidelityData = None) -> OptimalityCertificate:
    """Closed-form witness for the regime where the fidelity bound is tight.

    The unitary is the polar factor W V^H of sqrt(rho0) sqrt(rho1), taken
    from fd or, without it, from an SVD here; its completion on any
    rank-deficient part leaves the certificate conditions untouched.
    """
    s0 = p.rho0.sqrt
    s1 = p.rho1.sqrt
    if fd is None:
        w, _, vh = np.linalg.svd(s0 @ s1)
        vpol = w @ vh
    else:
        vpol = fd.polar
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


def _condition_spectra(p: UsdProblem, m: Povm, z: np.ndarray) -> np.ndarray:
    """Ascending spectra of Z, the two kernel compressions, the Gram
    matrix of Z Eq and the two equality residuals, from one eigenvalue
    call. The six are written into one stack and symmetrized in place;
    the stack is freed on return."""
    r0, r1 = p.rho0.matrix, p.rho1.matrix
    k0 = p.rho0.support.kernel_projector
    k1 = p.rho1.support.kernel_projector
    zeq = z @ m.eq
    d0, d1 = z - p.eta0 * r0, z - p.eta1 * r1
    a = np.empty((6,) + zeq.shape, np.result_type(zeq, d0, d1, k0, k1, m.e0, m.e1))
    a[0] = z
    np.matmul(k1 @ d0, k1, out=a[1])
    np.matmul(k0 @ d1, k0, out=a[2])
    np.matmul(dagger(zeq), zeq, out=a[3])
    np.matmul(m.e0 @ d0, m.e0, out=a[4])
    np.matmul(m.e1 @ d1, m.e1, out=a[5])
    # a + a^H by real and imaginary part, each in place beside a copy of
    # its transpose: half a stack, where a + dagger(a) takes two
    re = a.real
    re += re.swapaxes(-1, -2).copy()
    if a.dtype.kind == "c":
        im = a.imag
        im -= im.swapaxes(-1, -2).copy()
    a *= 0.5
    return np.linalg.eigvalsh(a)


def verify_certificate(p: UsdProblem, m: Povm, c: OptimalityCertificate,
                       tol: float = CERT_TOL) -> ValidationReport:
    """Evaluate all witness conditions and the trace identity.

    Equalities are reported as operator norms, inequalities as minimum
    eigenvalues of the kernel compressions (with the violation amount
    checked against tol). All six matrices take one eigenvalue call.
    """
    rep = ValidationReport()
    z = hermitize(as_double(c.z))
    # symmetrizing leaves the already Hermitian z as it is; an equality
    # residual's norm is the larger magnitude at the ends of its spectrum
    w = _condition_spectra(p, m, z)
    zmin, mn1, mn0 = unstack(w[:3, ..., 0])
    annihilation = item_or_array(gram_norm(w[3]))
    equality0, equality1 = unstack(np.maximum(-w[4:, ..., 0], w[4:, ..., -1]))
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


def _candidates(p: UsdProblem, m: Povm):
    """The closed-form witnesses in turn, each built only once the one
    before it has failed."""
    yield build_fidelity_certificate(p).z
    if p.gu_involution is not None and p.dim == 4:
        sys = eigh(m.e0)
        if all_true(np.count_nonzero(nonzero_mask(sys.eigenvalues), axis=-1) == 1):
            # the witness does not depend on the phase of E0's top eigenvector
            yield symmetric_projective_witness(p, sys.eigenvectors[..., :, -1], p.gu_involution)
    # giving up is optimal only when the states share one support
    yield np.zeros(np.shape(m.eq), complex)


def fit_certificate(p: UsdProblem, m: Povm, tol: float = CERT_TOL,
                    candidate: Optional[np.ndarray] = None) -> Optional[OptimalityCertificate]:
    """The first witness that certifies the given measurement.

    A given candidate, such as the oracle's dual solution or the
    closed-form symmetric witness, is tried first, then the closed
    forms: the fidelity-bound witness, the symmetric projective witness
    when E0 has rank 1 on a four-dimensional involution pair, and Z = 0.
    A stacked problem is certified only when one witness verifies on
    every instance. Absence of a result means "not certified", which is
    weaker than "refuted".
    """
    given = () if candidate is None else (candidate,)
    for z in itertools.chain(given, _candidates(p, m)):
        cert = OptimalityCertificate(z=z, success_trace=item_or_array(trace(z).real))
        rep = verify_certificate(p, m, cert, tol)
        if rep.ok:
            cert.residuals = rep.residuals
            return cert
    return None
