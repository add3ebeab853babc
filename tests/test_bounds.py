import numpy as np
import pytest

from conftest import first_class_instance, random_problem
from usdisc import (
    Branch,
    DensityMatrix,
    UsdProblem,
    audit_report,
    failure_lower_bound,
    failure_probability,
    fidelity_operators,
    rank_condition_check,
    solve,
    solve_first_class,
    tighter_q0_bound,
)
from usdisc.bb84 import bit_problem, bit_spectrum_closed_form, build_states
from usdisc.errors import BranchNotApplicable, InvalidInput
from usdisc.linalg import eigh, hermitize


def _swap(p):
    return UsdProblem(p.rho1, p.rho0, p.eta1, p.eta0, gu_involution=p.gu_involution)


def test_fidelity_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = random_problem(rng, int(rng.integers(2, 7)))
        f01 = fidelity_operators(p).fidelity
        f10 = fidelity_operators(_swap(p)).fidelity
        assert abs(f01 - f10) <= 1e-9


def _pair_with_small_singular_value(eps):
    # sqrt(rho0) sqrt(rho1) has singular values 0.387 and 0.447 eps
    e = np.eye(5, dtype=complex)
    a = (e[0] + e[2]) / np.sqrt(2)
    b = np.sqrt(1 - eps ** 2) * e[3] + eps * e[1]
    rho1 = 0.5 * np.outer(a, a.conj()) + 0.5 * np.outer(b, b.conj())
    return UsdProblem(DensityMatrix.from_matrix(np.diag([0.6, 0.4, 0, 0, 0]).astype(complex)),
                      DensityMatrix.from_matrix(rho1), 0.5, 0.5)


def test_fidelity_cutoff_drops_a_singular_value_below_it_without_failing():
    # the cutoff is on the singular values themselves: 4.5e-7 beside
    # 0.387 is kept, and the pair is solved at the fidelity floor
    p = _pair_with_small_singular_value(1e-6)
    s = fidelity_operators(p).s
    assert s[1] == pytest.approx(np.sqrt(0.2) * 1e-6, rel=1e-9)
    report = solve(p)
    assert report.branch is Branch.FIRST_CLASS_FIDELITY
    assert report.q_opt == pytest.approx(failure_lower_bound(p), abs=1e-15)
    assert audit_report(p, report).ok
    # 4.5e-12, below 1e-10 times the largest, is dropped, and the
    # trace-norm check, taken before the cut, still passes
    p = _pair_with_small_singular_value(1e-11)
    assert fidelity_operators(p).s[1] == 0.0
    assert fidelity_operators(p).fidelity == pytest.approx(np.sqrt(0.15), abs=1e-15)
    assert solve(p).q_opt == pytest.approx(failure_lower_bound(p), abs=1e-15)


def test_fidelity_unitary_invariant():
    rng = np.random.default_rng(1)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        p = random_problem(rng, d)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        w, _ = np.linalg.qr(g)
        rot = UsdProblem(
            DensityMatrix.from_matrix(hermitize(w @ p.rho0.matrix @ w.conj().T)),
            DensityMatrix.from_matrix(hermitize(w @ p.rho1.matrix @ w.conj().T)),
            p.eta0,
            p.eta1,
        )
        assert abs(
            fidelity_operators(p).fidelity - fidelity_operators(rot).fidelity
        ) <= 1e-9


def test_fidelity_trivial_cases():
    # identical pure states have fidelity 1, orthogonal ones 0
    v = np.zeros(3, complex)
    v[0] = 1.0
    w = np.zeros(3, complex)
    w[1] = 1.0
    same = UsdProblem(
        DensityMatrix.from_matrix(np.outer(v, v.conj())),
        DensityMatrix.from_matrix(np.outer(v, v.conj())),
        0.5,
        0.5,
    )
    orth = UsdProblem(
        DensityMatrix.from_matrix(np.outer(v, v.conj())),
        DensityMatrix.from_matrix(np.outer(w, w.conj())),
        0.5,
        0.5,
    )
    assert fidelity_operators(same).fidelity == pytest.approx(1.0, abs=1e-12)
    assert fidelity_operators(orth).fidelity == pytest.approx(0.0, abs=1e-12)


def test_failure_lower_bound_matches_fidelity():
    rng = np.random.default_rng(2)
    p = random_problem(rng, 4)
    fd = fidelity_operators(p)
    assert failure_lower_bound(p) == pytest.approx(
        min(1.0, 2.0 * np.sqrt(p.eta0 * p.eta1) * fd.fidelity), abs=1e-12
    )


def test_failure_lower_bound_of_a_stack_is_each_instance_bound():
    mus = [0.3, 0.5, 1.5]
    stacked = failure_lower_bound(build_states(mus).bit_problem())
    assert isinstance(stacked, np.ndarray) and stacked.shape == (3,)
    assert stacked.tolist() == [failure_lower_bound(bit_problem(mu)) for mu in mus]


def test_solver_output_respects_lower_bound():
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = first_class_instance(rng, int(rng.integers(2, 6)))
        rep = solve_first_class(p)
        q, _, _ = failure_probability(p, rep.povm)
        assert q >= failure_lower_bound(p) - 1e-8


def test_rank_conditions_on_bit_pair():
    # below the threshold one operator is indefinite, above both are PSD
    low = rank_condition_check(bit_problem(0.5))
    high = rank_condition_check(bit_problem(1.0))
    assert not low.both_psd
    assert low.op0_min_eig < 0
    assert high.both_psd


def test_rank_conditions_match_closed_form_spectrum():
    p = bit_problem(0.5)
    rep = rank_condition_check(p)
    lam_plus, lam_minus = bit_spectrum_closed_form(0.5)
    assert rep.op0_min_eig == pytest.approx(lam_minus, abs=1e-8)


def test_rank_condition_rejects_overlapping_supports():
    r0 = DensityMatrix.from_matrix(np.diag([0.5, 0.5, 0.0]))
    r1 = DensityMatrix.from_matrix(np.diag([0.0, 0.5, 0.5]))
    with pytest.raises(InvalidInput, match="supports overlap"):
        rank_condition_check(UsdProblem(r0, r1, 0.5, 0.5))


@pytest.mark.parametrize("eta0", [0.0, 1.0])
def test_fidelity_takes_any_prior_and_rank_conditions_refuse_a_zero_one(eta0):
    # the fidelity pair does not depend on the priors, although the same
    # call builds the rank-condition operators, which do
    v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    p = UsdProblem(DensityMatrix.from_matrix(np.diag([1.0, 0.0, 0.0])),
                   DensityMatrix.from_matrix(np.outer(v, v)), eta0, 1.0 - eta0)
    assert fidelity_operators(p).fidelity == pytest.approx(np.sqrt(0.5), abs=1e-15)
    assert failure_lower_bound(p) == 0.0
    with pytest.raises(InvalidInput, match="positive priors"):
        rank_condition_check(p)


def test_prior_window_excludes_lopsided_pure_case():
    # heavily biased priors on a pure overlapping pair fall outside
    v = np.array([1.0, 0.0], complex)
    w = np.array([np.sqrt(0.5), np.sqrt(0.5)], complex)
    p = UsdProblem(
        DensityMatrix.from_matrix(np.outer(v, v.conj())),
        DensityMatrix.from_matrix(np.outer(w, w.conj())),
        100.0 / 101.0,
        1.0 / 101.0,
    )
    rep = rank_condition_check(p)
    assert not rep.both_psd


def test_tighter_q0_bound_needs_involution():
    rng = np.random.default_rng(5)
    p = random_problem(rng, 4)
    with pytest.raises(BranchNotApplicable) as err:
        tighter_q0_bound(p)
    assert err.value.cause == "gu_involution"


def test_tighter_q0_bound_dominates_naive_compression():
    # the 1/(1 - lambda_min/2) factor can only increase the naive bound
    for mu in (0.1, 0.3, 0.5):
        p = bit_problem(mu)
        bound, lam = tighter_q0_bound(p)
        naive = p.eta0 * float(
            np.trace(_support(p.rho1.matrix) @ p.rho0.matrix).real
        )
        assert 0.0 < lam < 1.0
        assert bound >= naive - 1e-12


def _support(a):
    sys = eigh(a)
    keep = sys.eigenvalues > 1e-10 * sys.eigenvalues.max()
    v = sys.eigenvectors[:, keep]
    return v @ v.conj().T
