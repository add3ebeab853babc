"""Weak-coherent-pulse discrimination curves for the four-state protocol.

Two eavesdropping questions reduce to two-state discrimination at each
mean photon number mu. Which basis was used: a first-class problem
whose failure probability has a closed form for every mu. Which bit was
sent: an involution-symmetric problem that changes solution family at a
threshold photon number, located here by bisection on the closed-form
spectrum.

A sweep stacks both questions' states for the whole grid as 4 x 4
matrices under one shared involution (see build_states) and hands the
stack to one solvers.solve call, which decomposes it once and gates it
once; each instance gets the bits, and the branch, of a solve at its
photon number alone. Both questions' states are real, so the whole
sweep runs in float64.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import rank_condition_check
from .errors import InvalidInput, NumericalFailure, UsdError
from .problem import DensityMatrix, UsdProblem
from .solvers import Branch, solve

MU0_BRACKET = (0.1, 2.0)
DEFAULT_GRID = (0.05, 3.0, 0.05)
# The most grid points one sweep solves (see sweep).
MAX_GRID_POINTS = 10_000


@dataclass(frozen=True)
class Bb84States:
    rho_r: DensityMatrix
    rho_i: DensityMatrix
    rho_0: DensityMatrix
    rho_1: DensityMatrix
    u: np.ndarray  # the involution of both pairs

    def basis_problem(self) -> UsdProblem:
        return UsdProblem(rho0=self.rho_r, rho1=self.rho_i, eta0=0.5, eta1=0.5,
                          gu_involution=self.u)

    def bit_problem(self) -> UsdProblem:
        return UsdProblem(rho0=self.rho_0, rho1=self.rho_1, eta0=0.5, eta1=0.5,
                          gu_involution=self.u)


@dataclass(frozen=True)
class Bb84SweepRow:
    mu: float
    q_basis: float
    q_bit: float
    branch_bit: Branch
    min_eig_rho0_minus_f0: float


def _photon_number(formula):
    """formula(mu) for a finite, nonnegative photon number mu; InvalidInput
    naming mu for any other mu, and for one whose formula overflows."""
    @functools.wraps(formula)
    def checked(mu):
        if not (math.isfinite(mu) and mu >= 0):
            raise InvalidInput(f"mean photon number must be finite and nonnegative, got {mu!r}")
        try:
            return formula(mu)
        except OverflowError:
            raise InvalidInput(f"mean photon number {mu!r} overflows double precision") from None
    return checked


@_photon_number
def coefficients(mu: float) -> tuple:
    """Amplitudes (c0, c1, c2, c3) of the four phase-superposition
    components.

    Their squares sum to one for every mu, which is what normalizes the
    states built from them.
    """
    pref = math.exp(-mu / 2.0) / math.sqrt(2.0)
    c0 = pref * math.sqrt(math.cosh(mu) + math.cos(mu))
    c1 = pref * math.sqrt(math.sinh(mu) + math.sin(mu))
    c2 = pref * math.sqrt(math.cosh(mu) - math.cos(mu))
    # sinh(mu) - sin(mu) is nonnegative but underflows to tiny negatives
    c3 = pref * math.sqrt(max(math.sinh(mu) - math.sin(mu), 0.0))
    return c0, c1, c2, c3


# the basis of build_states' basis-question states: the paper's, second and third swapped
_BASIS_ORDER = [0, 2, 1, 3]
# rho_r and rho_0 as entrywise factors of the products c_i c_j, each in
# the basis build_states writes it in
_RHO_R_FACTORS = np.array([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]], float)
_H = math.sqrt(0.5)
_RHO_0_FACTORS = np.array([
    [1.0, _H, 0.0, -_H],
    [_H, 1.0, _H, 0.0],
    [0.0, _H, 1.0, _H],
    [-_H, 0.0, _H, 1.0],
])


def build_states(mu) -> Bb84States:
    """The two basis-question states, the two bit-question states, and
    the involution U relating each pair, all float64; each pair's second
    state is built as U rho U from its first.

    Both pairs are written in bases of their own, which leave every
    failure probability and branch as it is:
    - The basis-question states are the paper's, which are real, with
      the second and third basis vectors swapped. That permutes their
      entries exactly and carries the paper's involution
      diag(1, 1, -1, -1) to the bit involution diag(1, -1, 1, -1), so
      both questions' stacks share one involution, u.
    - The bit-question states are written in the basis that makes them
      real: with D = diag(exp(-i k pi / 4)), k = 0..3, the paper's states
      are D^H rho_0 D and D^H rho_1 D. D is diagonal, so it commutes with
      the bit involution.

    mu is one photon number or a sequence of N of them; for a sequence
    each state is an (N, 4, 4) stack whose instances are bit for bit the
    states built at each photon number alone.
    """
    if np.any(np.asarray(mu) <= 0):
        raise InvalidInput(f"mean photon number must be positive, got {mu!r}")
    c = np.array([coefficients(m) for m in np.atleast_1d(mu).tolist()])
    products = c[:, :, None] * c[:, None, :]
    rho_r = products[:, _BASIS_ORDER][:, :, _BASIS_ORDER] * _RHO_R_FACTORS
    rho_0 = products * _RHO_0_FACTORS
    if np.ndim(mu) == 0:
        rho_r, rho_0 = rho_r[0], rho_0[0]
    u = np.diag([1.0, -1.0, 1.0, -1.0])
    return Bb84States(*(DensityMatrix.from_matrix(rho)
                        for rho in (rho_r, u @ rho_r @ u, rho_0, u @ rho_0 @ u)), u=u)


def basis_problem(mu: float) -> UsdProblem:
    return build_states(mu).basis_problem()


def bit_problem(mu: float) -> UsdProblem:
    return build_states(mu).bit_problem()


@_photon_number
def q_basis_closed_form(mu: float) -> float:
    return math.exp(-mu) * (abs(math.cos(mu)) + abs(math.sin(mu)))


@_photon_number
def bit_spectrum_closed_form(mu: float):
    """Both eigenvalues of the bit-pair fidelity-gap operator; the lower
    one changes sign exactly at the threshold photon number."""
    root = math.sqrt(1.0 + math.exp(2.0 * mu) - 2.0 * math.exp(mu) * math.cos(2.0 * mu))
    lam_plus = 0.5 * (1.0 - math.exp(-mu) + math.exp(-2.0 * mu) * root)
    lam_minus = 0.5 * (1.0 - math.exp(-mu) - math.exp(-2.0 * mu) * root)
    return lam_plus, lam_minus


def locate_threshold():
    """Bisect the closed-form lower eigenvalue for its root, until the
    bracket is at most 1e-9 wide or after 100 steps.

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
    while hi - lo > 1e-9 and iterations < 100:
        iterations += 1
        mid = 0.5 * (lo + hi)
        if bit_spectrum_closed_form(mid)[1] < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), iterations


def find_mu0() -> float:
    """Threshold photon number where the bit-value problem switches
    solution family."""
    return locate_threshold()[0]


def _solve_points(mu):
    """Sweep rows at one photon number (a float) or over a grid of N of
    them (a list). Both questions' states form one stack of 2N instances
    under their shared involution, bit question first, and solve routes
    and gates the whole stack at once: the first-class rows (the bit
    question's above the threshold, then every basis-question row) run
    consecutively, so that side of the regime decision is one view."""
    mus = np.atleast_1d(mu).tolist()
    n = len(mus)
    states = build_states(mus)
    both = UsdProblem(
        rho0=DensityMatrix(np.concatenate([states.rho_0.matrix, states.rho_r.matrix])),
        rho1=DensityMatrix(np.concatenate([states.rho_1.matrix, states.rho_i.matrix])),
        eta0=0.5, eta1=0.5, gu_involution=states.u,
    )
    del states  # not held through the solve below
    report = solve(both)
    q_bit, q_basis = report.q_opt[:n].tolist(), report.q_opt[n:].tolist()
    for m, q in zip(mus, q_basis):
        closed = q_basis_closed_form(m)
        if abs(q - closed) > 1e-8:
            raise UsdError(
                f"basis failure probability {q!r} deviates "
                f"from closed form {closed!r}"
            )
    # the regime decision's verdict, cached on the stack by the solve
    min_eig = rank_condition_check(both).op0_min_eig[:n]
    return [
        Bb84SweepRow(mu=m, q_basis=qb, q_bit=qt, branch_bit=branch, min_eig_rho0_minus_f0=me)
        for m, qb, qt, branch, me in zip(mus, q_basis, q_bit, report.branch[:n], min_eig.tolist())
    ]


def sweep(mu_start: float = DEFAULT_GRID[0], mu_end: float = DEFAULT_GRID[1],
          step: float = DEFAULT_GRID[2]):
    """Failure probabilities of both questions across a photon-number grid.

    The grid is solved as one stack. Every basis-question value is
    checked against its closed form at 1e-8 before the rows are emitted.
    If that pass raises, the first photon number past the overflow point
    is named, if there is one; else the grid is solved again one photon
    number at a time, so that the error names the one where it arises.

    start, end and step must be finite. The grid may hold at most
    MAX_GRID_POINTS = 10,000 points (the default one has 60): the whole
    stack is held in memory at once, about 6 kB a point, so the limit
    keeps one sweep near 60 MB and a second, and a grid too fine to
    build is refused before its list of photon numbers is made.
    """
    grid = (mu_start, mu_end, step)
    if not all(map(math.isfinite, grid)) or not (0 < mu_start < mu_end) or step <= 0:
        raise InvalidInput(
            f"grid must be finite and satisfy 0 < start < end and step > 0, got {grid!r}"
        )
    intervals = (mu_end - mu_start) / step + 1e-9
    if intervals >= MAX_GRID_POINTS:
        raise InvalidInput(
            f"grid of {intervals + 1:.6g} points exceeds the limit of {MAX_GRID_POINTS} per sweep"
        )
    count = int(math.floor(intervals)) + 1
    mus = [mu_start + i * step for i in range(count)]
    try:
        return _solve_points(mus)
    except UsdError:
        pass  # the stacked pass's frames are let go before the re-solve
    for mu in mus:
        _at(mu, coefficients)
    return [row for mu in mus for row in _at(mu, _solve_points)]


def _at(mu, formula):
    """formula(mu), or its error naming the sweep's photon number mu."""
    try:
        return formula(mu)
    except UsdError as exc:
        raise type(exc)(f"sweep failed at mu={mu!r}: {exc}", exc.cause) from exc


def sweep_csv(rows) -> str:
    """Serialize sweep rows with the fixed header and 12 significant digits.

    min_eig is the lowest eigenvalue of the bit question's rho0 - F0. That
    operator vanishes on the kernel of rho0, so the column reads
    min(its lowest eigenvalue on the support of rho0, 0): negative on the
    projective rows and exactly 0 on the first-class ones.
    """
    lines = ["mu,q_basis,q_bit,branch_bit,min_eig"]
    for r in rows:
        lines.append(
            f"{r.mu:.12g},{r.q_basis:.12g},{r.q_bit:.12g},"
            f"{r.branch_bit.value},{r.min_eig_rho0_minus_f0:.12g}"
        )
    return "\n".join(lines) + "\n"
