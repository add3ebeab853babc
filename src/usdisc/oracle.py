"""Primal-dual interior-point oracle used to cross-check the analytic solvers.

Unambiguous discrimination is a semidefinite program (Eldar, IEEE Trans.
Inf. Theory 49, 446 (2003)). With V0 and V1 orthonormal bases of the
kernels of rho0 and rho1, the primal is

    max  eta0 Tr(A V1^H rho0 V1) + eta1 Tr(B V0^H rho1 V0)
    s.t. A >= 0,  B >= 0,  Eq = I - V1 A V1^H - V0 B V0^H >= 0,

so E0 = V1 A V1^H and E1 = V0 B V0^H are error free by construction. Its
dual is

    min  Tr Z
    s.t. Z >= 0,  V1^H (Z - eta0 rho0) V1 >= 0,  V0^H (Z - eta1 rho1) V0 >= 0,

and an optimal Z is exactly the witness that certificates.verify_certificate
checks. The solver takes Mehrotra predictor-corrector steps along the HKM
direction (Helmberg, Rendl, Vanderbei and Wolkowicz, SIAM J. Optim. 6, 342
(1996)), with the three cone blocks held as one block-diagonal matrix.
Both sides stay exactly feasible: the dual slacks are computed from Z and
Eq from A and B, so the Newton steps only have to close the
complementarity gap. Pure centring steps pull the iterate back onto the
central path, where Z Eq = mu I, whenever it strays, and again once the
gap is small. Off the path the cross terms of Z Eq decay only like
sqrt(mu), and the witness would miss the certificate tolerance.

Each iterate is factored once: one Cholesky factorisation of the stacked
[X, S] and the inverse of its factors give S^-1 and serve both
step-length tests. A predictor-corrector step therefore makes one
cholesky, one inv, two Schur-complement solves and two batched eigvalsh
calls. The result says why the loop stopped: "converged", "max_steps",
"max_centring", or "lin_alg_error" when an iterate lost definiteness to
rounding, in which case the last good iterate is returned.

This module must stay independent of the analytic solution formulas:
it exists to disagree with them when they are wrong.
"""

from dataclasses import dataclass

import numpy as np

from .certificates import OptimalityCertificate
from .errors import InvalidInput
from .linalg import dagger, hermitize
from .problem import Povm, UsdProblem, failure_probability

# Duality gap at which path following stops. Both objectives lie in
# [0, 1], so it is also the relative gap.
GAP_TOL = 1e-9
# Frobenius norm of X S the centring steps must reach. It bounds the
# witness's equality residuals, which the certificate checks at 1e-7.
COMPL_TOL = 1e-8
# A centring step replaces the predictor-corrector step while |X S|
# exceeds this multiple of its central-path value mu sqrt(n).
OFF_CENTRE = 10.0
MAX_STEPS = 80
MAX_CENTRING = 16


@dataclass(frozen=True)
class OracleResult:
    povm: Povm
    q_opt: float
    certificate: OptimalityCertificate
    iterations: int
    duality_gap: float
    # why the loop ended: "converged", "max_steps", "max_centring", or
    # "lin_alg_error" when an iterate lost definiteness to rounding
    stop: str

    @property
    def converged(self) -> bool:
        return self.stop == "converged"


def oracle_optimize(p: UsdProblem) -> OracleResult:
    """Maximize eta0 Tr(E0 rho0) + eta1 Tr(E1 rho1) over error-free
    measurements, and return the optimal dual Z as the certificate.

    duality_gap is Tr Z - (1 - q_opt). Both iterates stay feasible, so it
    bounds the distance of q_opt from the true optimum. The result is a
    deterministic function of the problem; iterations counts Newton steps
    and stop says why they ended. For real states every iterate, the
    measurement and Z are real.
    """
    if p.supports_overlap:
        raise InvalidInput(
            "state supports overlap; no error-free measurement can succeed on both"
        )
    r0m, r1m = p.rho0.matrix, p.rho1.matrix
    v0 = p.rho0.spectrum.kernel_columns()
    v1 = p.rho1.spectrum.kernel_columns()
    d = p.dim
    # real states keep every iterate real
    dtype = np.result_type(r0m, r1m, float)
    eye = np.eye(d, dtype=dtype)
    # X = diag(Eq, A, B) pairs with S = diag(Z, V1^H Z V1 - C_A, V0^H Z V0 - C_B);
    # W = [I V1 V0] maps the blocks into C^d, wk[k] keeps only block k's columns
    w = np.hstack([eye, v1, v0])
    sizes = (d, v1.shape[1], v0.shape[1])
    n = sum(sizes)
    edges = np.cumsum((0,) + sizes)
    blocks = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    mask = np.zeros((n, n), bool)
    wk = np.zeros((3, d, n), dtype)
    for k, blk in enumerate(blocks):
        mask[blk, blk] = True
        wk[k][:, blk] = w[:, blk]
    qb, ab, bb = blocks
    w_ab = wk[1] + wk[2]
    c = np.zeros((n, n), dtype)
    c[ab, ab] = p.eta0 * dagger(v1) @ r0m @ v1
    c[bb, bb] = p.eta1 * dagger(v0) @ r1m @ v0
    c = hermitize(c)
    # loop invariants. The Schur matrix below is built at twice its value,
    # so its right-hand side is taken with 2W.
    wh, wkh, w_abh = dagger(w).copy(), dagger(wk).copy(), dagger(w_ab).copy()
    w2 = 2.0 * w
    half_mask = 0.5 * mask
    root_n = np.sqrt(n)

    def with_inconclusive(x):
        x[qb, qb] = hermitize(eye - w_ab @ x @ w_abh)
        return x

    def slack(z):
        t = wh @ z @ w
        return half_mask * (t + dagger(t)) - c

    # A = B = I/3 keeps Eq >= I/3; Z = I leaves each kernel slack >= (1 - eta) I
    x = with_inconclusive(np.eye(n, dtype=dtype) / 3.0)
    z = eye.copy()
    s = slack(z)

    steps = 0
    centring = 0
    while True:
        xs = x @ s
        mu = xs.trace().real / n
        gap = z.trace().real - np.vdot(c, x).real
        compl = np.linalg.norm(xs)
        small_gap = gap <= GAP_TOL
        if small_gap and compl <= COMPL_TOL:
            stop = "converged"
            break
        if centring == MAX_CENTRING:
            stop = "max_centring"
            break
        if steps == MAX_STEPS:
            stop = "max_steps"
            break
        try:
            # One Cholesky factorisation per iterate. The inverse factors
            # L^-1 serve both step-length tests, and S^-1 = Ls^-H Ls^-1.
            lo = np.linalg.inv(np.linalg.cholesky(np.array([x, s])))
            loh = dagger(lo)
            sinv = loh[1] @ lo[1]
            # Schur complement of the HKM system on row-major vec(dZ): the
            # sum over blocks of P dZ Q + Q dZ P, P = W X W^H and
            # Q = W S^-1 W^H, as one product of the (i k) and (j l) indices
            pq = (wk @ np.array([x, sinv])[:, None] @ wkh).reshape(6, d * d)
            # Q^T = conj(Q) and P^T = conj(P), listed in swapped order
            qp = pq.reshape(2, 3 * d * d)[::-1].conj().reshape(6, d * d)
            m = (pq.T @ qp).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)

            def direction(r):
                """dZ and the stack [dX, dS] for the right-hand side r."""
                dz = np.linalg.solve(m, (w2 @ r @ wh).ravel()).reshape(d, d)
                ds = mask * (wh @ dz @ w)
                dx = hermitize(r - x @ ds @ sinv)
                return dz, np.array([dx, ds])

            def longest(dxs):
                """Largest steps keeping X + a dX and S + a dS PSD."""
                # eigvalsh reads only the lower triangle, so the congruence
                # needs no symmetrising
                low = np.linalg.eigvalsh(lo @ dxs @ loh)[:, 0].tolist()
                return [np.inf if v >= 0.0 else -1.0 / v for v in low]

            if small_gap:
                centring += 1
            if small_gap or compl > OFF_CENTRE * mu * root_n:
                r = mu * sinv - x
            else:
                _, dxs = direction(-x)
                dx, ds = dxs
                ap, ad = (min(1.0, t) for t in longest(dxs))
                mu_aff = np.vdot(x + ap * dx, s + ad * ds).real / n
                # aim no lower than a quarter of the stopping gap: centring
                # far below it runs into rounding
                sigma = min(1.0, max((mu_aff / mu) ** 3, 0.25 * GAP_TOL / (n * mu)))
                r = sigma * mu * sinv - x - hermitize(dx @ ds @ sinv)
            dz, dxs = direction(r)
            ap, ad = longest(dxs)
        except np.linalg.LinAlgError:
            # an iterate lost definiteness to rounding: keep the last one
            stop = "lin_alg_error"
            break
        frac = 0.9 + 0.09 * min(ap, ad, 1.0)
        # dX's A and B blocks are exactly Hermitian, so X's stay so
        x = with_inconclusive(x + min(1.0, frac * ap) * dxs[0])
        z = z + min(1.0, frac * ad) * hermitize(dz)
        s = slack(z)
        steps += 1

    e0 = hermitize(v1 @ x[ab, ab] @ dagger(v1))
    e1 = hermitize(v0 @ x[bb, bb] @ dagger(v0))
    povm = Povm(e0=e0, e1=e1, eq=hermitize(eye - e0 - e1))
    q = float(failure_probability(p, povm)[0])
    trace = float(z.trace().real)
    return OracleResult(
        povm=povm,
        q_opt=q,
        certificate=OptimalityCertificate(z=z, success_trace=trace),
        iterations=steps,
        duality_gap=trace - (1.0 - q),
        stop=stop,
    )
