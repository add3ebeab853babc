import numpy as np
import pytest

from conftest import always_fail, first_class_instance, random_gu4_problem
from test_check_passes import _count_calls
from usdisc import (
    Branch,
    DensityMatrix,
    OptimalityCertificate,
    Povm,
    UsdProblem,
    failure_lower_bound,
    failure_probability,
    fidelity_witness,
    fit_certificate,
    oracle_optimize,
    rank_condition_check,
    solve,
    solve_first_class,
    validate_povm,
    verify_certificate,
)
import usdisc.certificates
import usdisc.solvers
from usdisc.bb84 import basis_problem, bit_problem, build_states
from usdisc.certificates import CERT_TOL, symmetric_projective_witness
from usdisc.linalg import eigh, hermitize, outer, spectral_norm, trace

GRID = [round(0.05 * k, 2) for k in range(1, 61)]


def _pure_pair(s):
    v = np.array([1.0, 0.0], complex)
    w = np.array([s, np.sqrt(1 - s * s)], complex)
    return UsdProblem(
        DensityMatrix.from_matrix(np.outer(v, v.conj())),
        DensityMatrix.from_matrix(np.outer(w, w.conj())),
        0.5,
        0.5,
    )


def test_closed_certificate_trace_equals_success():
    rng = np.random.default_rng(0)
    for _ in range(6):
        p = first_class_instance(rng, int(rng.integers(2, 6)))
        cert = fit_certificate(p, solve_first_class(p).povm, fidelity_witness(p))
        assert cert is not None
        assert cert.success_trace == pytest.approx(
            1.0 - failure_lower_bound(p), abs=1e-10
        )


def test_closed_certificate_verifies_on_first_class_povm():
    rng = np.random.default_rng(1)
    for _ in range(4):
        p = first_class_instance(rng, int(rng.integers(2, 6)))
        rep = solve_first_class(p)
        assert fit_certificate(p, rep.povm, fidelity_witness(p)) is not None


def test_closed_certificate_orthogonal_pure_states():
    # perfect discrimination: the witness carries the full unit trace
    v = np.array([1.0, 0.0], complex)
    w = np.array([0.0, 1.0], complex)
    p = UsdProblem(
        DensityMatrix.from_matrix(np.outer(v, v.conj())),
        DensityMatrix.from_matrix(np.outer(w, w.conj())),
        0.5,
        0.5,
    )
    cert = fit_certificate(p, solve_first_class(p).povm, fidelity_witness(p))
    assert cert is not None
    assert cert.success_trace == pytest.approx(1.0, abs=1e-12)


def test_fit_matches_closed_construction_trace():
    p = basis_problem(0.7)
    rep = solve_first_class(p)
    cert = fit_certificate(p, rep.povm, fidelity_witness(p))
    assert cert is not None
    assert cert.success_trace == pytest.approx(1.0 - rep.q_opt, abs=1e-9)


def test_fit_succeeds_across_full_sweep_grid():
    """Both solver branches stay certifiable over the whole mu grid."""
    for mu in GRID:
        pb = basis_problem(mu)
        rb = solve_first_class(pb)
        assert fit_certificate(pb, rb.povm, fidelity_witness(pb)) is not None, mu
        pt = bit_problem(mu)
        rt = solve(pt)
        assert rt.branch is not Branch.ORACLE_ONLY, mu
        assert fit_certificate(pt, rt.povm, rt.certificate.z) is not None, mu


def test_fit_rejects_scaled_conclusive_element():
    # shrinking E0 keeps the POVM valid but breaks optimality
    p = bit_problem(0.3)
    rep = solve(p)
    assert rep.branch is Branch.GU_PROJECTIVE
    m = rep.povm
    bad = Povm(0.5 * m.e0, m.e1, hermitize(np.eye(4) - 0.5 * m.e0 - m.e1))
    assert fit_certificate(p, bad, rep.certificate.z) is None


def test_fit_checks_a_failing_measurement_once_and_builds_no_witness(monkeypatch):
    # E0 scaled by 1.01 breaks completeness, an entrywise check: the gate
    # refuses the measurement once, before it reads the witness, and
    # takes no eigen call
    p = bit_problem(0.3)
    rep = solve(p)
    m = rep.povm
    bad = Povm(1.01 * m.e0, m.e1, m.eq)
    reports = []
    povm_report = usdisc.certificates.povm_report
    monkeypatch.setattr(usdisc.certificates, "povm_report",
                        lambda *args: reports.append(1) or povm_report(*args))
    certs = []
    calls = _count_calls(monkeypatch,
                         lambda: certs.append(fit_certificate(p, bad, rep.certificate.z)))
    assert certs == [None]
    assert len(reports) == 1
    assert sum(calls.values()) == 0, calls


def test_fit_rejects_povm_from_wrong_problem():
    p3 = bit_problem(0.3)
    rep5 = solve(bit_problem(0.5))
    assert rep5.branch is Branch.GU_PROJECTIVE
    assert fit_certificate(p3, rep5.povm, rep5.certificate.z) is None


def test_fit_rejects_always_fail_on_discriminable_pair():
    # neither the zero witness nor the fidelity witness proves giving up
    p = _pure_pair(0.5)
    assert fit_certificate(p, always_fail(2), np.zeros((2, 2))) is None
    assert fit_certificate(p, always_fail(2), fidelity_witness(p)) is None


def test_fit_accepts_always_fail_on_identical_states():
    # indistinguishable states: giving up is optimal and Z = 0 certifies it
    v = np.array([1.0, 0.0], complex)
    p = UsdProblem(
        DensityMatrix.from_matrix(np.outer(v, v.conj())),
        DensityMatrix.from_matrix(np.outer(v, v.conj())),
        0.5,
        0.5,
    )
    cert = fit_certificate(p, always_fail(2), np.zeros((2, 2)))
    assert cert is not None
    assert np.allclose(cert.z, 0.0)


def test_fit_reaches_the_zero_witness_on_distinct_states_with_one_support():
    # the fidelity witness of two distinct states is not zero, so it cannot
    # annihilate Eq = I; Z = 0 certifies
    rho0 = np.array([[0.6, 0.2j, 0.0], [-0.2j, 0.4, 0.0], [0.0, 0.0, 0.0]])
    rho1 = np.array([[0.3, -0.1, 0.0], [-0.1, 0.7, 0.0], [0.0, 0.0, 0.0]], complex)
    p = UsdProblem(DensityMatrix.from_matrix(rho0), DensityMatrix.from_matrix(rho1), 0.4, 0.6)
    m = always_fail(3)
    assert fit_certificate(p, m, fidelity_witness(p)) is None
    cert = fit_certificate(p, m, np.zeros((3, 3)))
    assert cert is not None
    assert not np.any(cert.z)
    assert verify_certificate(p, m, cert).ok


def test_verify_flags_zero_witness_on_nontrivial_problem():
    p = bit_problem(0.5)
    rep = solve(p)
    assert rep.branch is Branch.GU_PROJECTIVE
    out = verify_certificate(p, rep.povm, OptimalityCertificate(z=np.zeros((4, 4))))
    assert not out.ok
    assert "trace_identity" in out.failures


def test_verify_reports_all_residual_names():
    p = bit_problem(0.5)
    rep = solve(p)
    assert rep.branch is Branch.GU_PROJECTIVE
    out = verify_certificate(p, rep.povm, rep.certificate)
    for name in (
        "z_psd",
        "z_annihilates_eq",
        "e0_equality",
        "e1_equality",
        "kernel1_inequality",
        "kernel0_inequality",
        "trace_identity",
    ):
        assert name in out.residuals
    assert out.ok, out.failures


def test_projective_witness_is_the_closed_form(monkeypatch):
    """On the projective branch the solver's witness is the closed-form
    symmetric witness itself."""
    rng = np.random.default_rng(17)
    problems = [bit_problem(mu) for mu in GRID]
    problems += [random_gu4_problem(rng) for _ in range(200)]
    witnesses = []

    def recorded(p, x, u):
        witnesses.append(symmetric_projective_witness(p, x, u))
        return witnesses[-1]

    monkeypatch.setattr(usdisc.solvers, "symmetric_projective_witness", recorded)
    checked = 0
    for p in problems:
        first_class = rank_condition_check(p).both_psd
        witnesses.clear()
        rep = solve(p)
        assert rep.branch is (Branch.FIRST_CLASS_FIDELITY if first_class else Branch.GU_PROJECTIVE)
        if first_class:
            continue
        checked += 1
        u = p.gu_involution
        z = rep.certificate.z
        assert len(witnesses) == 1
        assert np.array_equal(z, witnesses[0])
        out = verify_certificate(p, rep.povm, rep.certificate)
        assert out.ok, out.failures
        assert spectral_norm(u @ z @ u - z) <= 1e-12
        assert eigh(z).rank() <= 2
        q, _, _ = failure_probability(p, rep.povm)
        assert abs(np.trace(z).real - (1.0 - q)) <= 1e-12
    assert checked >= 100


STACK_MUS = [0.1, 0.2, 0.3, 0.4]


def _projective_case(states):
    p = states.bit_problem()
    rep = solve(p)
    assert set(np.atleast_1d(np.array(rep.branch, object))) == {Branch.GU_PROJECTIVE}
    return p, rep.povm, rep.certificate.z


def _first_class_case(states):
    p = states.basis_problem()
    return p, solve_first_class(p).povm, fidelity_witness(p)


@pytest.mark.parametrize("case", [_projective_case, _first_class_case],
                         ids=["projective_bit", "first_class_basis"])
def test_fit_certifies_a_stack_row_by_row(case):
    """A stack's own witness certifies it, and each of its rows is the
    witness, with the trace, that certifies that instance on its own."""
    cert = fit_certificate(*case(build_states(STACK_MUS)))
    assert cert is not None
    for i, mu in enumerate(STACK_MUS):
        row = fit_certificate(*case(build_states(mu)))
        assert row is not None, mu
        assert np.array_equal(cert.z[i], row.z), mu
        assert cert.success_trace[i] == row.success_trace, mu


def test_fit_builds_no_closed_form_for_a_verifying_candidate(monkeypatch):
    # with the states' decompositions cached but not the fidelity pair, the
    # gate takes no eigh, eigvalsh or svd call and builds no fidelity witness
    p = bit_problem(0.3)
    rep = solve(p)
    assert rep.branch is Branch.GU_PROJECTIVE
    for state in (p.rho0, p.rho1):
        state.spectrum, state.factor, state.support
    p = UsdProblem(p.rho0, p.rho1, p.eta0, p.eta1, p.gu_involution)
    built = []
    build = usdisc.certificates.fidelity_witness
    monkeypatch.setattr(usdisc.certificates, "fidelity_witness",
                        lambda q: built.append(q) or build(q))
    certs = []
    calls = _count_calls(monkeypatch,
                         lambda: certs.append(fit_certificate(p, rep.povm, rep.certificate.z)))
    assert certs[0] is not None
    assert (calls, built) == ({}, [])


@pytest.mark.parametrize("mu", [0.2, 0.3, 0.4])
def test_oracle_dual_certifies_only_as_a_given_candidate(mu):
    """Without its involution the bit pair has no closed-form witness
    below the regime boundary; the oracle's dual certifies the oracle's
    measurement."""
    bit = bit_problem(mu)
    p = UsdProblem(bit.rho0, bit.rho1, bit.eta0, bit.eta1)
    oracle = oracle_optimize(p)
    cert = fit_certificate(p, oracle.povm, oracle.certificate.z)
    assert cert is not None
    assert verify_certificate(p, oracle.povm, cert).ok


def _sweep_stack(mus):
    """Both questions' states at the photon numbers mus, stacked as the
    sweep stacks them, with the ungated report of their construction."""
    st = build_states(mus)
    p = UsdProblem(DensityMatrix(np.concatenate([st.rho_0.matrix, st.rho_r.matrix])),
                   DensityMatrix(np.concatenate([st.rho_1.matrix, st.rho_i.matrix])),
                   0.5, 0.5, gu_involution=st.u)
    return p, usdisc.solvers._construct(p.decompose())


def _row_gate_passes(p, report, z, i):
    """Whether instance i alone, with witness z[i], passes validate_povm and
    verify_certificate: certify's checks, at their full bounds."""
    m, row = report.povm, p.take(i)
    povm = Povm(m.e0[i], m.e1[i], m.eq[i])
    cert = OptimalityCertificate(z[i], success_trace=trace(z[i]).real)
    return validate_povm(row, povm).ok and verify_certificate(row, povm, cert).ok


def _moved_to_eq(p, m, rng):
    """m with weight 10^-10.5 to 10^-8.5, around the PSD bound 1e-9, moved
    from E0 to Eq on half the rows, along a random direction in the kernel
    of rho1 that keeps completeness and E0 error-free."""
    n = len(m.e0)
    k1 = p.rho1.spectrum.kernel_columns()
    v = (k1 @ rng.standard_normal((n, k1.shape[-1], 1)))[..., 0]
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    step = (10.0 ** rng.uniform(-10.5, -8.5, n) * (rng.random(n) < 0.5))[:, None, None]
    return Povm(m.e0 - step * outer(v, v), m.e1, m.eq + step * outer(v, v))


def test_a_stack_that_passes_fit_certificate_passes_the_gate_on_every_row():
    """Sweep stacks whose witnesses are perturbed on random rows by
    symmetric noise from 1e-9 to 1e-6, around CERT_TOL, or whose E0 loses
    weight to Eq around the PSD bound: whenever the stacked verdict
    passes, each row passes certify's checks alone."""
    rng = np.random.default_rng(25)
    outcomes = set()
    for _ in range(80):
        p, report = _sweep_stack(np.sort(rng.uniform(0.05, 3.0, 6)).tolist())
        z = report.certificate.z.copy()
        n = len(z)
        if rng.random() < 0.5:
            noise = rng.standard_normal((n, 4, 4))
            noise += noise.swapaxes(-1, -2)
            scale = 10.0 ** rng.uniform(-9, -6, n) * (rng.random(n) < 0.5)
            z += (scale / spectral_norm(noise))[:, None, None] * noise
        else:
            report.povm = _moved_to_eq(p, report.povm, rng)
        verdict = fit_certificate(p, report.povm, z) is not None
        rows = [_row_gate_passes(p, report, z, i) for i in range(n)]
        if verdict:
            assert all(rows)
        outcomes.add((verdict, all(rows)))
    # the stacked verdict both passes and refuses, and it refuses some
    # stacks whose rows all pass alone
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_a_residual_between_half_and_full_bound_falls_back_to_row_solves(monkeypatch):
    """A projective row's witness raised by 0.75 CERT_TOL E0 moves only its
    E0 equality residual, to 0.75 CERT_TOL: within certify's bound, which
    that row passes alone, but over the half the gate allows. solve then
    re-solves the stack row by row, with the bits of each row's solve, and
    sends that row, solved alone with the raised witness, to the oracle."""
    p, report = _sweep_stack(GRID[::6])
    k = report.branch.index(Branch.GU_PROJECTIVE)
    z = report.certificate.z.copy()
    z[k] += 0.75 * CERT_TOL * report.povm.e0[k]
    assert fit_certificate(p, report.povm, z) is None
    assert all(_row_gate_passes(p, report, z, i) for i in range(len(z)))

    expected = solve(_sweep_stack(GRID[::6])[0])
    witness = usdisc.solvers.symmetric_projective_witness

    def raised(q, x, u):
        z = witness(q, x, u)
        if x.ndim > 1:  # on the stack, not on the rows solved alone
            z[0] += 0.75 * CERT_TOL * outer(x[0], x[0])
        return z

    monkeypatch.setattr(usdisc.solvers, "symmetric_projective_witness", raised)
    p = _sweep_stack(GRID[::6])[0]
    got = solve(p)
    monkeypatch.undo()
    assert got.branch == expected.branch
    # the stacked witness kept the raised row only if the verdict passed
    rows = [solve(p.take(i)) for i in range(len(got.branch))]
    for i, row in enumerate(rows):
        assert got.branch[i] is row.branch
        for name in ("q_opt", "q0", "q1"):
            assert getattr(got, name)[i] == getattr(row, name), (i, name)
        for name in ("e0", "e1", "eq"):
            assert np.array_equal(getattr(got.povm, name)[i], getattr(row.povm, name)), (i, name)
        assert np.array_equal(got.certificate.z[i], row.certificate.z), i

    monkeypatch.setattr(usdisc.solvers, "symmetric_projective_witness",
                        lambda q, x, u: witness(q, x, u) + 0.75 * CERT_TOL * outer(x, x))
    alone = p.take(k)
    assert solve(alone).branch is Branch.ORACLE_ONLY
