"""Weak-coherent-pulse discrimination curves for the four-state protocol.

Two eavesdropping questions reduce to two-state discrimination at each
mean photon number mu. Which basis was used: a first-class problem
whose failure probability has a closed form for every mu. Which bit was
sent: an involution-symmetric problem that changes solution family at a
threshold photon number, located here by bisection on the closed-form
spectrum.

A sweep stacks both questions' states for the whole grid as 4 x 4
matrices, decomposes the stack once and solves each question on its
rows of it through the analytic solvers (see solvers); each instance
gets the bits a solve at its photon number alone would give. The basis
states are real-valued but kept complex, so that they share the bit
states' stack.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bounds import fidelity_operators
from .errors import InvalidInput, NumericalFailure, UsdError
from .problem import DensityMatrix, UsdProblem, verify_gu_structure
from .solvers import (
    Branch,
    gu_4d_preconditions,
    gu_4d_projective,
    gu_4d_regime,
    solve_first_class,
)

MU0_BRACKET = (0.1, 2.0)
DEFAULT_GRID = (0.05, 3.0, 0.05)


@dataclass(frozen=True)
class CoherentBb84Model:
    mu: float
    c: tuple


@dataclass(frozen=True)
class Bb84States:
    rho_r: DensityMatrix
    rho_i: DensityMatrix
    rho_0: DensityMatrix
    rho_1: DensityMatrix
    u_basis: np.ndarray
    u_bit: np.ndarray

    def basis_problem(self) -> UsdProblem:
        return UsdProblem(rho0=self.rho_r, rho1=self.rho_i, eta0=0.5, eta1=0.5,
                          gu_involution=self.u_basis)

    def bit_problem(self) -> UsdProblem:
        return UsdProblem(rho0=self.rho_0, rho1=self.rho_1, eta0=0.5, eta1=0.5,
                          gu_involution=self.u_bit)


@dataclass(frozen=True)
class Bb84SweepRow:
    mu: float
    q_basis: float
    q_bit: float
    branch_bit: Branch
    min_eig_rho0_minus_f0: float


def coefficients(mu: float) -> CoherentBb84Model:
    """Amplitudes of the four phase-superposition components.

    Their squares sum to one for every mu, which is what normalizes the
    states built from them.
    """
    if mu < 0:
        raise InvalidInput(f"mean photon number must be nonnegative, got {mu!r}")
    pref = math.exp(-mu / 2.0) / math.sqrt(2.0)
    c0 = pref * math.sqrt(math.cosh(mu) + math.cos(mu))
    c1 = pref * math.sqrt(math.sinh(mu) + math.sin(mu))
    c2 = pref * math.sqrt(math.cosh(mu) - math.cos(mu))
    # sinh(mu) - sin(mu) is nonnegative but underflows to tiny negatives
    c3 = pref * math.sqrt(max(math.sinh(mu) - math.sin(mu), 0.0))
    return CoherentBb84Model(mu=mu, c=(c0, c1, c2, c3))


# rho_r and rho_0 as entrywise factors of the products c_i c_j; scaling
# by the 1/2 in the phases is exact, so each entry has the bits of the
# product written out
_RHO_R_FACTORS = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]], complex)
_PM, _MP = (1.0 - 1j) / 2.0, (1.0 + 1j) / 2.0
_RHO_0_FACTORS = np.array([
    [1.0, _PM, 0.0, _MP],
    [_MP, 1.0, _PM, 0.0],
    [0.0, _MP, 1.0, _PM],
    [_PM, 0.0, _MP, 1.0],
])


def build_states(mu) -> Bb84States:
    """The two basis-question states, the two bit-question states, and
    the involutions relating each pair. Both conjugation identities are
    verified at 1e-12 before returning.

    mu is one photon number or a sequence of N of them; for a sequence
    each state is an (N, 4, 4) stack whose instances are bit for bit the
    states built at each photon number alone.
    """
    if np.any(np.asarray(mu) <= 0):
        raise InvalidInput(f"mean photon number must be positive, got {mu!r}")
    c = np.array([coefficients(m).c for m in np.atleast_1d(mu).tolist()])
    products = c[:, :, None] * c[:, None, :]
    rho_r = products * _RHO_R_FACTORS
    rho_0 = products * _RHO_0_FACTORS
    if np.ndim(mu) == 0:
        rho_r, rho_0 = rho_r[0], rho_0[0]
    u_basis = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    rho_i = u_basis @ rho_r @ u_basis
    u_bit = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)
    rho_1 = u_bit @ rho_0 @ u_bit

    states = Bb84States(
        rho_r=DensityMatrix.from_matrix(rho_r, declared_rank=2),
        rho_i=DensityMatrix.from_matrix(rho_i, declared_rank=2),
        rho_0=DensityMatrix.from_matrix(rho_0, declared_rank=2),
        rho_1=DensityMatrix.from_matrix(rho_1, declared_rank=2),
        u_basis=u_basis,
        u_bit=u_bit,
    )
    for name, pair, u in (
        ("basis", (states.rho_r, states.rho_i), u_basis),
        ("bit", (states.rho_0, states.rho_1), u_bit),
    ):
        rep = verify_gu_structure(pair[0], pair[1], u, tol=1e-12)
        if not rep.ok:
            raise InvalidInput(
                f"{name}-pair involution identity violated at mu={mu!r}: {rep.failures}"
            )
    return states


def basis_problem(mu: float) -> UsdProblem:
    return build_states(mu).basis_problem()


def bit_problem(mu: float) -> UsdProblem:
    return build_states(mu).bit_problem()


def q_basis_closed_form(mu: float) -> float:
    if mu < 0:
        raise InvalidInput(f"mean photon number must be nonnegative, got {mu!r}")
    return math.exp(-mu) * (abs(math.cos(mu)) + abs(math.sin(mu)))


def bit_spectrum_closed_form(mu: float):
    """Both eigenvalues of the bit-pair fidelity-gap operator; the lower
    one changes sign exactly at the threshold photon number."""
    if mu < 0:
        raise InvalidInput(f"mean photon number must be nonnegative, got {mu!r}")
    root = math.sqrt(1.0 + math.exp(2.0 * mu) - 2.0 * math.exp(mu) * math.cos(2.0 * mu))
    lam_plus = 0.5 * (1.0 - math.exp(-mu) + math.exp(-2.0 * mu) * root)
    lam_minus = 0.5 * (1.0 - math.exp(-mu) - math.exp(-2.0 * mu) * root)
    return lam_plus, lam_minus


def locate_threshold(tol: float = 1e-9, max_iters: int = 100):
    """Bisect the closed-form lower eigenvalue for its root.

    Returns (threshold, iterations used).
    """
    lo, hi = MU0_BRACKET
    flo = bit_spectrum_closed_form(lo)[1]
    fhi = bit_spectrum_closed_form(hi)[1]
    if flo >= 0 or fhi <= 0:
        raise NumericalFailure(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo:.3e}, f(hi)={fhi:.3e}"
        )
    iterations = 0
    while hi - lo > tol and iterations < max_iters:
        iterations += 1
        mid = 0.5 * (lo + hi)
        if bit_spectrum_closed_form(mid)[1] < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), iterations


def find_mu0(tol: float = 1e-9) -> float:
    """Threshold photon number where the bit-value problem switches
    solution family."""
    return locate_threshold(tol)[0]


def _stacked_questions(mus):
    """Both questions' states as one problem of 2N instances, basis
    question first, and the bit involution; the states built on the way
    are dropped on return."""
    states = build_states(mus)
    both = UsdProblem(
        rho0=DensityMatrix(np.concatenate([states.rho_r.matrix, states.rho_0.matrix]), 2),
        rho1=DensityMatrix(np.concatenate([states.rho_i.matrix, states.rho_1.matrix]), 2),
        eta0=0.5, eta1=0.5,
    )
    return both, states.u_bit


def _solve_points(mu):
    """Sweep rows at one photon number (a float) or over a grid of N of
    them (a list). Both questions' states form one stack of 2N instances,
    basis question first, so each state, each state sum and the fidelity
    pair take one decomposition call for both; each question is then
    solved on its own rows of the stack."""
    mus = np.atleast_1d(mu).tolist()
    n = len(mus)
    both, u_bit = _stacked_questions(mus)
    # decompose the states and their sums here: every sub-stack taken
    # below holds row slices of these decompositions
    both.supports_overlap
    fd = fidelity_operators(both)

    basis = slice(None, n)
    q_basis = solve_first_class(both.take(basis), fd=fd.take(basis)).q_opt.tolist()
    for m, q in zip(mus, q_basis):
        closed = q_basis_closed_form(m)
        if abs(q - closed) > 1e-8:
            raise UsdError(
                f"basis failure probability {q!r} deviates "
                f"from closed form {closed!r}"
            )

    bit, bit_fd = both.take(slice(n, None), gu_involution=u_bit), fd.take(slice(n, None))
    u, k = gu_4d_preconditions(bit)
    first_class, mn, _ = gu_4d_regime(bit, bit_fd)
    q_bit = np.empty(n)
    for side in (True, False):
        rows = np.flatnonzero(first_class == side)
        if rows.size == 0:
            continue
        if rows[-1] - rows[0] + 1 == rows.size:
            # consecutive rows, as either side of the threshold on a grid
            # is, are taken as a slice: views of the stack, not copies
            rows = slice(int(rows[0]), int(rows[-1]) + 1)
        if side:
            report = solve_first_class(bit.take(rows), fd=bit_fd.take(rows))
        else:
            report, _ = gu_4d_projective(bit.take(rows), u, k[rows], mn[rows])
        q_bit[rows] = report.q_opt
    return [
        Bb84SweepRow(
            mu=m, q_basis=qb, q_bit=qt,
            branch_bit=Branch.FIRST_CLASS_FIDELITY if first else Branch.GU_PROJECTIVE,
            min_eig_rho0_minus_f0=me,
        )
        for m, qb, qt, first, me in zip(mus, q_basis, q_bit.tolist(), first_class.tolist(),
                                        mn.tolist())
    ]


def sweep(mu_start: float = DEFAULT_GRID[0], mu_end: float = DEFAULT_GRID[1],
          step: float = DEFAULT_GRID[2]):
    """Failure probabilities of both questions across a photon-number grid.

    The grid is solved as one stack. Every basis-question value is
    checked against its closed form at 1e-8 before the rows are emitted.
    If that pass raises, the grid is solved again one photon number at a
    time, so that the error names the photon number where it arises.
    """
    if not (0 < mu_start < mu_end) or step <= 0:
        raise InvalidInput(
            f"grid must satisfy 0 < start < end and step > 0, got "
            f"({mu_start!r}, {mu_end!r}, {step!r})"
        )
    count = int(math.floor((mu_end - mu_start) / step + 1e-9)) + 1
    mus = [mu_start + i * step for i in range(count)]
    try:
        return _solve_points(mus)
    except UsdError:
        pass
    rows = []
    for mu in mus:
        try:
            rows.extend(_solve_points(mu))
        except UsdError as exc:
            raise type(exc)(f"sweep failed at mu={mu!r}: {exc}", exc.cause) from exc
    return rows


def sweep_csv(rows) -> str:
    """Serialize sweep rows with the fixed header and 12 significant digits."""
    lines = ["mu,q_basis,q_bit,branch_bit,min_eig"]
    for r in rows:
        lines.append(
            f"{r.mu:.12g},{r.q_basis:.12g},{r.q_bit:.12g},"
            f"{r.branch_bit.value},{r.min_eig_rho0_minus_f0:.12g}"
        )
    return "\n".join(lines) + "\n"
