import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import usdisc

from conftest import always_fail, first_class_instance, random_gu4_problem
from test_check_passes import _count_calls
from usdisc import (
    Branch,
    DensityMatrix,
    OptimalityCertificate,
    Povm,
    SolutionReport,
    UsdProblem,
    audit_report,
    failure_lower_bound,
    failure_probability,
    fidelity_operators,
    gu_4d_preconditions,
    gu_kernel_spectrum,
    projectivity_check,
    rank_condition_check,
    solve,
    solve_first_class,
    spectrum_negation_check,
    serialize,
    validate_povm,
)
from usdisc.bb84 import basis_problem, bit_problem, build_states, find_mu0, sweep
from usdisc.certificates import symmetric_projective_witness
from usdisc.errors import BranchNotApplicable, InvalidInput, NumericalFailure
from usdisc.linalg import hermitize, psd_check, spectral_norm
from usdisc.solvers import _gate


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
        gu_4d_preconditions(skew)
    assert err.value.cause == "priors"


def test_gu_solver_requires_involution():
    p = bit_problem(0.3)
    bare = UsdProblem(p.rho0, p.rho1, 0.5, 0.5)
    with pytest.raises(BranchNotApplicable) as err:
        gu_4d_preconditions(bare)
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
        gu_4d_preconditions(p)
    assert err.value.cause == "dimension"


def test_gu_solver_requires_rank_2():
    # an equal-prior involution pair of pure states: outside the symmetric
    # solver's scope, and solved and audited as first class
    u = np.diag([1.0, -1.0, 1.0, -1.0])
    a = np.array([np.cos(0.3), np.sin(0.3), 0.0, 0.0])
    p = UsdProblem(DensityMatrix.from_matrix(np.outer(a, a)),
                   DensityMatrix.from_matrix(np.outer(u @ a, u @ a)), 0.5, 0.5, gu_involution=u)
    with pytest.raises(BranchNotApplicable) as err:
        gu_4d_preconditions(p)
    assert err.value.cause == "rank"
    rep = solve(p)
    assert rep.branch is Branch.FIRST_CLASS_FIDELITY
    audit = audit_report(p, rep)
    assert audit.ok, audit.failures


def test_audit_refuses_a_stack():
    stack = build_states([0.3, 1.5]).bit_problem()
    with pytest.raises(InvalidInput, match="not a stack"):
        audit_report(stack, solve(stack))


def test_branch_dichotomy_follows_rank_condition():
    rng = np.random.default_rng(1)
    for _ in range(12):
        p = random_gu4_problem(rng)
        fd = fidelity_operators(p)
        ok, _ = psd_check(hermitize(p.rho0.matrix - fd.f0))
        rep = solve(p)
        assert rep.branch is (Branch.FIRST_CLASS_FIDELITY if ok else Branch.GU_PROJECTIVE)


def test_gu_projective_strictly_beats_bound():
    # equality with the fidelity bound happens only in the other branch
    for mu in (0.1, 0.3, 0.65):
        p = bit_problem(mu)
        rep = solve(p)
        assert rep.branch is Branch.GU_PROJECTIVE
        assert rep.q_opt > failure_lower_bound(p) + 1e-6


def _solve_symmetric(p):
    """solve on an involution pair, checked to take the exact branch that
    the regime decision names, so no oracle fallback passes unseen."""
    rep = solve(p)
    first_class = rank_condition_check(p).both_psd
    assert rep.branch is (Branch.FIRST_CLASS_FIDELITY if first_class else Branch.GU_PROJECTIVE)
    return rep


def test_gu_output_symmetry():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 6:
        p = random_gu4_problem(rng)
        rep = _solve_symmetric(p)
        if rep.branch is Branch.FIRST_CLASS_FIDELITY:
            continue
        checked += 1
        u = p.gu_involution
        m = rep.povm
        assert spectral_norm(m.e1 - u @ m.e0 @ u) <= 1e-10
        assert spectral_norm(u @ m.eq @ u - m.eq) <= 1e-10


def test_gu_phase_is_optimal():
    """No interference phase between the signed kernel eigenvectors gives
    a larger success term than the solved measurement's Tr(E0 rho0)."""
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 6:
        p = random_gu4_problem(rng)
        rep = _solve_symmetric(p)
        if rep.branch is Branch.FIRST_CLASS_FIDELITY:
            continue
        checked += 1
        success = np.trace(rep.povm.e0 @ p.rho0.matrix).real
        k1 = p.rho1.support.kernel_projector
        w, vecs = np.linalg.eigh(hermitize(k1 @ p.gu_involution @ k1))
        a, b = w[-1], -w[0]
        for phi in np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False):
            x = (np.exp(1j * phi) * np.sqrt(b) * vecs[:, -1] + np.sqrt(a) * vecs[:, 0])
            x = x / np.sqrt(a + b)
            assert (x.conj() @ p.rho0.matrix @ x).real <= success + 1e-12, phi


def test_gu_projective_passes_projectivity():
    for mu in (0.1, 0.5):
        rep = solve(bit_problem(mu))
        assert rep.branch is Branch.GU_PROJECTIVE
        out = projectivity_check(rep.povm)
        assert out.ok, out.failures


def test_projectivity_rejects_first_class_smear():
    # the fidelity-branch POVM on the basis pair is not projective
    from usdisc.bb84 import basis_problem

    rep = solve_first_class(basis_problem(0.4))
    out = projectivity_check(rep.povm)
    assert not out.ok


def test_projectivity_rejects_giving_up_for_its_inconclusive_rank():
    # E0 = E1 = 0, Eq = I: every element idempotent, but Eq has rank 4, not 2
    out = projectivity_check(always_fail(4))
    assert out.failures == ["eq_rank"]
    assert out.residuals["eq_rank"] == 4.0


def test_branch_flips_across_threshold():
    mu0 = find_mu0()
    below = solve(bit_problem(mu0 - 0.01))
    above = solve(bit_problem(mu0 + 0.01))
    assert below.branch is Branch.GU_PROJECTIVE
    assert above.branch is Branch.FIRST_CLASS_FIDELITY


def test_q_is_continuous_at_threshold():
    mu0 = find_mu0()
    eps = 1e-4
    lo = solve(bit_problem(mu0 - eps))
    hi = solve(bit_problem(mu0 + eps))
    assert (lo.branch, hi.branch) == (Branch.GU_PROJECTIVE, Branch.FIRST_CLASS_FIDELITY)
    assert abs(lo.q_opt - hi.q_opt) <= 1e-3
    # at the threshold itself the branches agree to solver precision
    at = solve(bit_problem(mu0))
    assert at.branch is Branch.FIRST_CLASS_FIDELITY
    assert abs(at.q_opt - np.exp(-mu0)) <= 1e-6


def test_spectrum_negation_on_bit_pair():
    for mu in (0.2, 0.8, 2.0):
        assert spectrum_negation_check(bit_problem(mu))


def test_spectrum_negation_is_false_for_an_involution_with_a_nan_entry():
    # its compressions' spectra are NaN, and numpy's eigensolver is not reached
    p = bit_problem(0.3)
    u = p.gu_involution.copy()
    u[0, 1] = np.nan
    assert spectrum_negation_check(UsdProblem(p.rho0, p.rho1, 0.5, 0.5, u)) is False


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


def test_reports_carry_diagnostics_and_certificates():
    # an analytic report stores its witness and no diagnostics; only the
    # oracle's report carries diagnostics, its run record
    p = bit_problem(0.3)
    rep = solve(p)
    assert rep.branch is Branch.GU_PROJECTIVE
    assert rep.certificate is not None
    assert rep.diagnostics == {}
    q, q0, q1 = failure_probability(p, rep.povm)
    assert rep.q_opt == pytest.approx(q, abs=1e-12)
    assert rep.q0 == pytest.approx(q0, abs=1e-12)
    assert rep.q1 == pytest.approx(q1, abs=1e-12)
    oracle = solve(_bare_bit_pair())
    assert oracle.branch is Branch.ORACLE_ONLY
    assert set(oracle.diagnostics) == {"oracle_iterations", "oracle_converged",
                                       "oracle_duality_gap"}


@pytest.mark.parametrize("make, expected", [
    (lambda: first_class_instance(np.random.default_rng(3), 4), 1),
    (lambda: bit_problem(1.5), 1),
    (lambda: bit_problem(0.3), 2),
], ids=["first_class", "symmetric_first_class", "projective"])
def test_solve_decomposes_each_state_once(monkeypatch, make, expected):
    # rho0, rho1 and rho0 + rho1 in one stacked call (plus the
    # kernel-compressed involution on the projective side), the fidelity
    # operators coming from one SVD: every other spectral quantity is
    # derived from these decompositions, and the router adds none
    p = make()
    assert _count_calls(monkeypatch, lambda: solve(p))["eigh"] == expected


def _bare_bit_pair():
    p = bit_problem(0.3)
    return UsdProblem(p.rho0, p.rho1, 0.5, 0.5)


@pytest.mark.parametrize("make, branch, expected", [
    (lambda: first_class_instance(np.random.default_rng(3), 4), Branch.FIRST_CLASS_FIDELITY, 1),
    (lambda: bit_problem(1.5), Branch.FIRST_CLASS_FIDELITY, 1),
    (lambda: bit_problem(0.3), Branch.GU_PROJECTIVE, 1),
    (_bare_bit_pair, Branch.ORACLE_ONLY, 1),
], ids=["first_class", "symmetric_first_class", "projective", "oracle"])
def test_audit_decomposes_each_state_once(monkeypatch, make, branch, expected):
    # a report read back from its text holds no decomposition: the audit
    # takes the three in one call; the rank of Eq that the projective label
    # needs comes from the audit's one eigenvalue call, not from an eigh
    p = make()
    text = serialize.dumps(serialize.report_to_obj(p, solve(p)))
    p2, report = serialize.report_from_obj(serialize.loads(text))
    assert report.branch is branch
    assert _count_calls(monkeypatch, lambda: audit_report(p2, report))["eigh"] == expected
    assert audit_report(p2, report).ok


def test_sweep_decomposes_each_state_once(monkeypatch):
    # the sweep's one stack, then the kernel-compressed involution of its projective rows
    assert _count_calls(monkeypatch, sweep)["eigh"] == 2


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


@pytest.mark.parametrize("make, branch", [
    (lambda: first_class_instance(np.random.default_rng(3), 4), Branch.FIRST_CLASS_FIDELITY),
    (lambda: bit_problem(1.5), Branch.FIRST_CLASS_FIDELITY),
    (lambda: bit_problem(0.3), Branch.GU_PROJECTIVE),
], ids=["first_class", "symmetric_first_class", "projective"])
def test_an_exact_branch_verifies_its_own_witness_once(monkeypatch, make, branch):
    # each exact branch gates its closed-form witness with one
    # fit_certificate call given that witness alone, decided without
    # verify_certificate, and the chain of closed-form witnesses is never started
    import usdisc.certificates
    import usdisc.solvers

    calls = []
    for owner, name in ((usdisc.solvers, "fit_certificate"),
                        (usdisc.certificates, "verify_certificate"),
                        (usdisc.certificates, "_candidates")):
        def wrapped(*args, _name=name, _original=getattr(owner, name), **kwargs):
            calls.append((_name, kwargs.get("candidate") is not None))
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)
    assert solve(make()).branch is branch
    assert calls == [("fit_certificate", True)]


@pytest.mark.parametrize("make", [
    lambda: first_class_instance(np.random.default_rng(3), 4),
    lambda: bit_problem(1.5),
    lambda: bit_problem(0.3),
], ids=["first_class", "symmetric_first_class", "projective"])
def test_an_analytic_solve_takes_one_eigvalsh_and_two_cholesky(monkeypatch, make):
    # the rank conditions take the one eigenvalue call; the gate factors
    # the witness conditions and the measurement, three matrices a call
    p, reports = make(), []
    calls = _count_calls(monkeypatch, lambda: reports.append(solve(p)), ("eigvalsh", "cholesky"))
    assert reports[0].branch is not Branch.ORACLE_ONLY
    assert calls == {"eigvalsh": 1, "cholesky": 2}


def test_a_projective_witness_that_fails_sends_solve_to_the_oracle(monkeypatch):
    import usdisc.solvers

    witness = usdisc.solvers.symmetric_projective_witness
    monkeypatch.setattr(usdisc.solvers, "symmetric_projective_witness",
                        lambda *args: 1.01 * witness(*args))
    p = bit_problem(0.3)
    rep = solve(p)
    assert rep.branch is Branch.ORACLE_ONLY
    audit = audit_report(p, rep)
    assert audit.ok, audit.failures


def test_a_kernel_involution_without_a_signed_pair_sends_solve_to_the_oracle(monkeypatch):
    import usdisc.solvers

    monkeypatch.setattr(usdisc.solvers, "_kernel_involution",
                        lambda p: np.diag([1.0, 0.5, 0.0, 0.0]))
    p = bit_problem(0.3)
    with pytest.raises(BranchNotApplicable) as err:
        usdisc.solvers._construct_projective(p)
    assert err.value.cause == "spectrum"
    rep = solve(p)
    assert rep.branch is Branch.ORACLE_ONLY
    audit = audit_report(p, rep)
    assert audit.ok, audit.failures


def test_symmetric_first_class_solve_reads_one_rank_condition_spectrum(monkeypatch):
    # the regime decision and the first-class rank check read one cached
    # spectrum of the rank-condition operators: one eigenvalue call for both
    import usdisc.solvers

    inside, calls = [], []
    original = usdisc.solvers.rank_condition_check

    def wrapped(*args, **kwargs):
        inside.append(None)
        try:
            return original(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(usdisc.solvers, "rank_condition_check", wrapped)
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        if inside:
            calls.append(None)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert solve(bit_problem(1.5)).branch is Branch.FIRST_CLASS_FIDELITY
    assert len(calls) == 1


@pytest.mark.parametrize("make", [
    lambda: first_class_instance(np.random.default_rng(3), 4),
    lambda: bit_problem(1.5),
    lambda: bit_problem(0.3),
    lambda: basis_problem(0.3),
], ids=["first_class", "symmetric_first_class", "projective", "real_basis"])
def test_solve_falls_back_on_a_numerical_failure(monkeypatch, make):
    # a failed SVD or polar-trace check in an analytic branch hands the
    # problem to the oracle instead of aborting the solve
    import usdisc.bounds

    def failing(p):
        raise NumericalFailure("injected SVD failure")

    monkeypatch.setattr(usdisc.bounds, "fidelity_operators", failing)
    p = make()
    rep = solve(p)
    assert rep.branch is Branch.ORACLE_ONLY
    audit = audit_report(p, rep)
    assert audit.ok, audit.failures


def _instance(stack, i):
    """Row i of a stacked problem as a problem of its own, with no caches."""
    return UsdProblem(DensityMatrix(stack.rho0.matrix[i]), DensityMatrix(stack.rho1.matrix[i]),
                      stack.eta0, stack.eta1, gu_involution=stack.gu_involution)


def _assert_rows_solve_alone(stack):
    """Every row of solve(stack) has the bits of solve on that instance alone."""
    rep = solve(stack)
    n = len(stack.rho0.matrix)
    assert len(rep.branch) == n
    for i in range(n):
        one = solve(_instance(stack, i))
        assert rep.branch[i] is one.branch, i
        for name in ("q_opt", "q0", "q1"):
            assert getattr(rep, name)[i] == getattr(one, name), (i, name)
        for name in ("e0", "e1", "eq"):
            assert np.array_equal(getattr(rep.povm, name)[i], getattr(one.povm, name)), (i, name)
        assert np.array_equal(rep.certificate.z[i], one.certificate.z), i
    return rep


STRADDLING_MUS = [0.3, 0.5, 0.8, 1.1, 1.5, 2.0]


def test_stacked_solve_straddling_mu0_matches_each_instance():
    mu0 = find_mu0()
    rep = _assert_rows_solve_alone(build_states(STRADDLING_MUS).bit_problem())
    assert list(rep.branch) == [Branch.GU_PROJECTIVE if mu < mu0 else Branch.FIRST_CLASS_FIDELITY
                                for mu in STRADDLING_MUS]


def test_stacked_solve_of_rows_out_of_order_matches_each_instance():
    # neither side of the regime decision is a run of consecutive rows
    rep = _assert_rows_solve_alone(build_states([1.5, 0.3, 2.0, 0.5, 0.8, 0.1]).bit_problem())
    assert set(rep.branch) == {Branch.GU_PROJECTIVE, Branch.FIRST_CLASS_FIDELITY}


def test_stacked_solve_of_mixed_ranks_solves_row_by_row():
    rho0 = np.array([np.diag([0.5, 0.5, 0.0, 0.0]), np.diag([1 / 3, 1 / 3, 1 / 3, 0.0])])
    rho1 = np.array([np.diag([0.0, 0.0, 0.5, 0.5]), np.diag([0.0, 0.0, 0.0, 1.0])])
    p = UsdProblem(DensityMatrix.from_matrix(rho0), DensityMatrix.from_matrix(rho1), 0.5, 0.5)
    rep = _assert_rows_solve_alone(p)
    assert rep.branch == (Branch.FIRST_CLASS_FIDELITY,) * 2


def test_stacked_solve_sends_a_row_forced_off_its_branch_to_the_oracle(monkeypatch):
    import usdisc.solvers

    stack = build_states(STRADDLING_MUS).bit_problem()
    target = stack.rho0.matrix[1].copy()
    projective = usdisc.solvers._construct_projective

    def refuse_target(p):
        rows = p.rho0.matrix.reshape((-1, 4, 4))
        if any(np.array_equal(r, target) for r in rows):
            raise BranchNotApplicable("injected failure at one row", cause="certificate")
        return projective(p)

    monkeypatch.setattr(usdisc.solvers, "_construct_projective", refuse_target)
    rep = _assert_rows_solve_alone(stack)
    assert rep.branch[1] is Branch.ORACLE_ONLY
    assert rep.branch[0] is Branch.GU_PROJECTIVE


@pytest.mark.parametrize("witness, row", [
    ("symmetric_projective_witness", 1),
    ("fidelity_witness", 4),
], ids=["projective_row", "first_class_row"])
def test_a_row_failing_the_joint_gate_sends_the_stack_row_by_row(monkeypatch, witness, row):
    # a stack split by the regime decision is gated once, as a whole; when
    # one row's witness fails that gate, every row is solved alone
    import usdisc.solvers

    stack = build_states([round(0.05 * k, 2) for k in range(1, 61, 7)]).bit_problem()
    branches = solve(stack).branch
    assert set(branches) == {Branch.GU_PROJECTIVE, Branch.FIRST_CLASS_FIDELITY}
    target = stack.rho0.matrix[row].copy()
    original = getattr(usdisc.solvers, witness)

    def broken(p, *args):
        z = original(p, *args)
        hit = [np.array_equal(r, target) for r in p.rho0.matrix.reshape((-1, 4, 4))]
        z.reshape((-1, 4, 4))[np.array(hit)] += 1e-3 * np.eye(4)
        return z

    solved = []
    route = usdisc.solvers.solve

    def recorded(p):
        solved.append(p.rho0.matrix.shape[:-2])
        return route(p)

    monkeypatch.setattr(usdisc.solvers, witness, broken)
    monkeypatch.setattr(usdisc.solvers, "solve", recorded)
    rep = _assert_rows_solve_alone(stack)
    assert rep.branch[row] is Branch.ORACLE_ONLY
    assert rep.branch[:row] + rep.branch[row + 1:] == branches[:row] + branches[row + 1:]
    # the re-solves inside solve(stack): each row once, alone
    assert solved == [()] * len(branches)


@pytest.mark.parametrize("shift", [0.7, np.pi / 2, np.pi])
def test_gate_rejects_a_projective_measurement_with_a_wrong_phase(shift):
    # a wrong interference phase between the signed kernel eigenvectors
    # still gives a valid measurement whose success term equals its
    # expansion in them; only the witness shows it is not optimal
    p = bit_problem(0.3)
    u, r0 = p.gu_involution, p.rho0.matrix
    k1 = p.rho1.support.kernel_projector
    w, vecs = np.linalg.eigh(hermitize(k1 @ u @ k1))
    a, b, v0, v1 = w[-1], -w[0], vecs[:, -1], vecs[:, 0]
    cross = v0 @ r0 @ v1

    def gated(phase):
        x = (np.exp(1j * phase) * np.sqrt(b) * v0 + np.sqrt(a) * v1) / np.sqrt(a + b)
        e0 = np.outer(x, x.conj())
        e1 = hermitize(u @ e0 @ u)
        m = Povm(e0, e1, hermitize(np.eye(4) - e0 - e1))
        assert validate_povm(p, m).ok
        expanded = (b * (v0 @ r0 @ v0) + a * (v1 @ r0 @ v1)
                    + 2.0 * np.sqrt(a * b) * (cross * np.exp(-1j * phase)).real) / (a + b)
        assert abs((x.conj() @ r0 @ x).real - expanded) <= 1e-10
        report = SolutionReport(*failure_probability(p, m), m, Branch.GU_PROJECTIVE, {},
                                OptimalityCertificate(symmetric_projective_witness(p, x, u)))
        return _gate(p, report)

    phase = np.angle(cross)
    assert gated(phase).q_opt == pytest.approx(solve(p).q_opt, abs=1e-12)
    with pytest.raises(BranchNotApplicable, match="witness fails verification"):
        gated(phase + shift)


def _eigen_calls(monkeypatch, fn):
    return sum(_count_calls(monkeypatch, fn).values())


def test_stacked_solve_eigen_calls_do_not_grow_with_the_stack(monkeypatch):
    grid = [round(0.05 * k, 2) for k in range(1, 61)]
    counts = []
    for mus in (grid[::10], grid):
        stack = build_states(mus).bit_problem()
        counts.append(_eigen_calls(monkeypatch, lambda: solve(stack)))
    assert counts[0] == counts[1]


def test_solve_then_audit_take_one_svd(monkeypatch):
    # the fidelity pair is cached on the problem: the audit's branch-label
    # check reads the one the solve computed
    p = first_class_instance(np.random.default_rng(3), 4)

    def solve_and_audit():
        assert audit_report(p, solve(p)).ok

    assert _count_calls(monkeypatch, solve_and_audit)["svd"] == 1


def _names_with_nested(code):
    """The global and attribute names a code object reads, with those of
    the functions and lambdas compiled inside it."""
    names = set(code.co_names)
    for c in code.co_consts:
        if hasattr(c, "co_names"):
            names |= _names_with_nested(c)
    return names


def test_solve_is_the_only_router():
    # a function that names both exact constructions chooses between them
    routers = set()
    for name in ["usdisc"] + [f"usdisc.{m.name}" for m in pkgutil.iter_modules(usdisc.__path__)]:
        path = Path(importlib.import_module(name).__file__)
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            functions = [c for c in code.co_consts if hasattr(c, "co_names")]
            stack.extend(functions)
            for fn in functions:
                if {"_construct_first_class", "_construct_projective"} <= _names_with_nested(fn):
                    routers.add((name, getattr(fn, "co_qualname", fn.co_name)))
    assert routers == {("usdisc.solvers", "_construct")}
