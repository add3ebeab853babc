import numpy as np
import pytest

from conftest import first_class_instance, random_gu4_problem, random_pure_pair
from test_check_passes import _count_calls
from usdisc import (
    Branch,
    DensityMatrix,
    HostState,
    UsdProblem,
    audit_report,
    failure_lower_bound,
    failure_probability,
    fidelity_operators,
    gu_kernel_spectrum,
    projectivity_check,
    solve,
    solve_first_class,
    solve_gu_4d,
    spectrum_negation_check,
    split_off_extraction,
    validate_povm,
)
from usdisc.bb84 import basis_problem, bit_problem, find_mu0
from usdisc.errors import BranchNotApplicable, NumericalFailure
from usdisc.linalg import hermitize, psd_check, spectral_norm
from usdisc.solvers import _signed_kernel_eigs


def test_first_class_reaches_the_bound():
    rng = np.random.default_rng(0)
    for _ in range(6):
        p = first_class_instance(rng, int(rng.integers(2, 7)))
        rep = solve_first_class(p)
        assert rep.branch is Branch.FIRST_CLASS_FIDELITY
        assert rep.q_opt == pytest.approx(failure_lower_bound(p), abs=1e-9)
        out = validate_povm(p, rep.povm)
        assert out.ok, out.failures


def test_first_class_rejects_outside_regime():
    with pytest.raises(BranchNotApplicable) as err:
        solve_first_class(bit_problem(0.3))
    assert err.value.cause == "rank_conditions"


def test_first_class_orthogonal_pure_states_never_fail():
    v = np.array([1.0, 0.0], complex)
    w = np.array([0.0, 1.0], complex)
    p = UsdProblem(
        DensityMatrix.from_matrix(np.outer(v, v.conj())),
        DensityMatrix.from_matrix(np.outer(w, w.conj())),
        0.5,
        0.5,
    )
    rep = solve_first_class(p)
    assert rep.q_opt == pytest.approx(0.0, abs=1e-12)


def test_first_class_orthogonal_mixed_states_never_fail():
    # in a random basis the fidelity operators of orthogonal supports are
    # rounding noise, which must not fail the solve
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    rho0 = hermitize(q[:, :2] @ np.diag([0.7, 0.3]) @ q[:, :2].conj().T)
    rho1 = hermitize(q[:, 2:] @ np.diag([0.5, 0.3, 0.2]) @ q[:, 2:].conj().T)
    p = UsdProblem(DensityMatrix.from_matrix(rho0), DensityMatrix.from_matrix(rho1), 0.3, 0.7)
    rep = solve(p)
    assert rep.branch is Branch.FIRST_CLASS_FIDELITY
    assert rep.q_opt == pytest.approx(0.0, abs=1e-12)
    audit = audit_report(p, rep)
    assert audit.ok, audit.failures


def test_gu_solver_requires_equal_priors():
    p = bit_problem(0.3)
    skew = UsdProblem(p.rho0, p.rho1, 0.6, 0.4, gu_involution=p.gu_involution)
    with pytest.raises(BranchNotApplicable) as err:
        solve_gu_4d(skew)
    assert err.value.cause == "priors"


def test_gu_solver_requires_involution():
    p = bit_problem(0.3)
    bare = UsdProblem(p.rho0, p.rho1, 0.5, 0.5)
    with pytest.raises(BranchNotApplicable) as err:
        solve_gu_4d(bare)
    assert err.value.cause == "involution_missing"


def test_gu_solver_requires_dim_4():
    v = np.array([1.0, 0.0], complex)
    w = np.array([0.0, 1.0], complex)
    p = UsdProblem(
        DensityMatrix.from_matrix(np.outer(v, v.conj())),
        DensityMatrix.from_matrix(np.outer(w, w.conj())),
        0.5,
        0.5,
        gu_involution=np.array([[0.0, 1.0], [1.0, 0.0]], complex),
    )
    with pytest.raises(BranchNotApplicable) as err:
        solve_gu_4d(p)
    assert err.value.cause == "dimension"


def test_branch_dichotomy_follows_rank_condition():
    rng = np.random.default_rng(1)
    for _ in range(12):
        p = random_gu4_problem(rng)
        fd = fidelity_operators(p)
        ok, _ = psd_check(hermitize(p.rho0.matrix - fd.f0))
        rep, gu = solve_gu_4d(p)
        if ok:
            assert rep.branch is Branch.FIRST_CLASS_FIDELITY
            assert gu is None
        else:
            assert rep.branch is Branch.GU_PROJECTIVE
            assert gu is not None


def test_gu_projective_strictly_beats_bound():
    # equality with the fidelity bound happens only in the other branch
    for mu in (0.1, 0.3, 0.65):
        p = bit_problem(mu)
        rep, _ = solve_gu_4d(p)
        assert rep.branch is Branch.GU_PROJECTIVE
        assert rep.q_opt > failure_lower_bound(p) + 1e-6


def test_gu_output_symmetry():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 6:
        p = random_gu4_problem(rng)
        rep, gu = solve_gu_4d(p)
        if gu is None:
            continue
        checked += 1
        u = p.gu_involution
        m = rep.povm
        assert spectral_norm(m.e1 - u @ m.e0 @ u) <= 1e-10
        assert spectral_norm(u @ m.eq @ u - m.eq) <= 1e-10


def test_gu_phase_is_optimal():
    """Perturbing the interference phase never raises the success term."""
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 6:
        p = random_gu4_problem(rng)
        rep, gu = solve_gu_4d(p)
        if gu is None:
            continue
        checked += 1
        a, b, phi = gu.a, gu.b, gu.phase
        k = gu.kernel_operator
        vals, vecs = _signed_kernel_eigs(k)
        c0, c1 = vecs[:, 0], vecs[:, -1]
        base = None
        for delta in (0.0, np.pi / 4, np.pi / 2, np.pi):
            x = (np.exp(1j * (phi + delta)) * np.sqrt(b) * c0 + np.sqrt(a) * c1)
            x = x / np.sqrt(a + b)
            succ = float((x.conj() @ p.rho0.matrix @ x).real)
            if delta == 0.0:
                base = succ
            else:
                assert succ <= base + 1e-12


def test_gu_projective_passes_projectivity():
    for mu in (0.1, 0.5):
        rep, _ = solve_gu_4d(bit_problem(mu))
        out = projectivity_check(rep.povm)
        assert out.ok, out.failures


def test_projectivity_rejects_first_class_smear():
    # the fidelity-branch POVM on the basis pair is not projective
    from usdisc.bb84 import basis_problem

    rep = solve_first_class(basis_problem(0.4))
    out = projectivity_check(rep.povm)
    assert not out.ok


def test_branch_flips_across_threshold():
    mu0 = find_mu0()
    below, _ = solve_gu_4d(bit_problem(mu0 - 0.01))
    above, _ = solve_gu_4d(bit_problem(mu0 + 0.01))
    assert below.branch is Branch.GU_PROJECTIVE
    assert above.branch is Branch.FIRST_CLASS_FIDELITY


def test_q_is_continuous_at_threshold():
    mu0 = find_mu0()
    eps = 1e-4
    lo, _ = solve_gu_4d(bit_problem(mu0 - eps))
    hi, _ = solve_gu_4d(bit_problem(mu0 + eps))
    assert abs(lo.q_opt - hi.q_opt) <= 1e-3
    # at the threshold itself the branches agree to solver precision
    at, _ = solve_gu_4d(bit_problem(mu0))
    assert abs(at.q_opt - np.exp(-mu0)) <= 1e-6


def test_spectrum_negation_on_bit_pair():
    for mu in (0.2, 0.8, 2.0):
        assert spectrum_negation_check(bit_problem(mu))


def test_spectrum_negation_needs_involution():
    p = bit_problem(0.3)
    bare = UsdProblem(p.rho0, p.rho1, 0.5, 0.5)
    with pytest.raises(BranchNotApplicable) as err:
        spectrum_negation_check(bare)
    assert err.value.cause == "involution_missing"


def test_gu_kernel_spectrum_signs():
    rng = np.random.default_rng(4)
    for _ in range(6):
        p = random_gu4_problem(rng)
        fd = fidelity_operators(p)
        ok, _ = psd_check(hermitize(p.rho0.matrix - fd.f0))
        if ok:
            continue
        vals = gu_kernel_spectrum(p)
        assert (vals > 0).sum() == 1
        assert (vals < 0).sum() == 1


def test_split_off_none_in_first_class_regime():
    p = bit_problem(1.5)
    rep, _ = solve_gu_4d(p)
    assert split_off_extraction(p, rep.povm) is None


def test_split_off_on_projective_branch():
    """Outside the regime one state donates a discard direction and the
    other a direction detected with certainty."""
    p = bit_problem(0.3)
    rep, _ = solve_gu_4d(p)
    sub = split_off_extraction(p, rep.povm)
    assert sub is not None
    assert sub.host_state in (HostState.RHO0, HostState.RHO1)
    assert max(abs(v) for v in sub.residuals.values()) <= 1e-7
    e = sub.e_vector
    assert abs(np.linalg.norm(e) - 1.0) <= 1e-9
    # the inconclusive element fixes |e>
    assert np.linalg.norm(rep.povm.eq @ e - e) <= 1e-6


def test_reports_carry_diagnostics_and_certificates():
    p = bit_problem(0.3)
    rep, gu = solve_gu_4d(p)
    assert rep.certificate is not None
    assert "kernel_eig_pos" in rep.diagnostics
    assert rep.diagnostics["success_crosscheck_gap"] <= 1e-10
    q, q0, q1 = failure_probability(p, rep.povm)
    assert rep.q_opt == pytest.approx(q, abs=1e-12)
    assert rep.q0 == pytest.approx(q0, abs=1e-12)
    assert rep.q1 == pytest.approx(q1, abs=1e-12)
    assert rep.diagnostics["op0_min_eig"] < 0.0


@pytest.mark.parametrize("make, expected", [
    (lambda: first_class_instance(np.random.default_rng(3), 4), 3),
    (lambda: bit_problem(1.5), 3),
    (lambda: bit_problem(0.3), 4),
], ids=["first_class", "symmetric_first_class", "projective"])
def test_solve_decomposes_each_state_once(monkeypatch, make, expected):
    # rho0, rho1 and rho0 + rho1 (plus the kernel-compressed involution
    # on the projective side), the fidelity operators coming from one
    # SVD: every other spectral quantity is derived from these
    # decompositions, and the router adds none
    p = make()
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(None)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    solve(p)
    assert len(calls) == expected


@pytest.mark.parametrize("make", [
    lambda: first_class_instance(np.random.default_rng(3), 4),
    lambda: bit_problem(1.5),
    lambda: bit_problem(0.3),
], ids=["first_class", "symmetric_first_class", "projective"])
def test_solve_takes_one_svd(monkeypatch, make):
    # the fidelity operators and the first-class witness share one SVD,
    # and no check takes one
    p = make()
    assert _count_calls(monkeypatch, lambda: solve(p))["svd"] == 1


@pytest.mark.parametrize("make", [
    lambda: first_class_instance(np.random.default_rng(3), 4),
    lambda: bit_problem(1.5),
    lambda: bit_problem(0.3),
    lambda: basis_problem(0.3),
], ids=["first_class", "symmetric_first_class", "projective", "real_basis"])
def test_solve_falls_back_on_a_numerical_failure(monkeypatch, make):
    # a failed SVD or polar-trace check in an analytic branch hands the
    # problem to the oracle instead of aborting the solve
    import usdisc.solvers

    def failing(p):
        raise NumericalFailure("injected SVD failure")

    monkeypatch.setattr(usdisc.solvers, "fidelity_operators", failing)
    p = make()
    rep = solve(p)
    assert rep.branch is Branch.ORACLE_ONLY
    audit = audit_report(p, rep)
    assert audit.ok, audit.failures
