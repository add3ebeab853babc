from collections import Counter

import numpy as np
import pytest

from conftest import (
    first_class_instance,
    random_gu4_problem,
    random_problem,
    rank_failing_problem,
)
from usdisc import (
    Branch,
    DensityMatrix,
    UsdProblem,
    audit_report,
    failure_lower_bound,
    oracle,
    oracle_optimize,
    rank_condition_check,
    solve,
    validate_povm,
    verify_certificate,
)
from usdisc.bb84 import bit_problem
from usdisc.errors import InvalidInput
from usdisc.linalg import psd_check


def _pure_pair(s, eta0=0.5):
    v = np.array([1.0, 0.0], complex)
    w = np.array([s, np.sqrt(1 - s * s)], complex)
    return UsdProblem(
        DensityMatrix.from_matrix(np.outer(v, v.conj())),
        DensityMatrix.from_matrix(np.outer(w, w.conj())),
        eta0,
        1.0 - eta0,
    )


def test_oracle_matches_pure_state_overlap():
    # equal priors: the optimal failure probability is the overlap itself
    for s in (0.3, 0.6, 0.8):
        res = oracle_optimize(_pure_pair(s))
        assert res.q_opt == pytest.approx(s, abs=1e-6)


def test_oracle_output_is_a_valid_povm():
    p = _pure_pair(0.6)
    res = oracle_optimize(p)
    out = validate_povm(p, res.povm)
    assert out.ok, out.failures


def test_oracle_is_deterministic():
    rng = np.random.default_rng(12)
    p = random_problem(rng, 5)
    r1 = oracle_optimize(p)
    r2 = oracle_optimize(p)
    for a, b in ((r1.povm.e0, r2.povm.e0), (r1.povm.e1, r2.povm.e1),
                 (r1.povm.eq, r2.povm.eq), (r1.certificate.z, r2.certificate.z)):
        assert a.tobytes() == b.tobytes()
    assert (r1.q_opt, r1.iterations, r1.duality_gap) == (r2.q_opt, r2.iterations, r2.duality_gap)


def test_oracle_reaches_fidelity_bound_on_first_class_instances():
    rng = np.random.default_rng(2)
    for i in range(5):
        p = first_class_instance(rng, int(rng.integers(2, 7)))
        res = oracle_optimize(p)
        assert abs(res.q_opt - failure_lower_bound(p)) <= 1e-5


def test_oracle_agrees_with_projective_branch():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 3:
        p = random_gu4_problem(rng)
        if rank_condition_check(p).both_psd:
            continue
        rep = solve(p)
        assert rep.branch is Branch.GU_PROJECTIVE
        checked += 1
        res = oracle_optimize(p)
        assert abs(res.q_opt - rep.q_opt) <= 1e-5
        # weak duality: q_opt - gap <= q* <= q_opt; the 1e-12 absorbs
        # rounding in the analytic value
        assert -1e-12 <= res.q_opt - rep.q_opt <= res.duality_gap + 1e-12


def test_oracle_never_undercuts_lower_bound():
    rng = np.random.default_rng(4)
    for i in range(6):
        p = random_gu4_problem(rng)
        res = oracle_optimize(p)
        assert res.q_opt >= failure_lower_bound(p) - 1e-6


def test_oracle_witness_verifies_where_rank_conditions_fail():
    rng = np.random.default_rng(5)
    for d in (3, 4, 5):
        found = 0
        while found < 4:
            p = random_problem(rng, d)
            if rank_condition_check(p).both_psd:
                continue
            found += 1
            res = oracle_optimize(p)
            assert res.converged
            rep = verify_certificate(p, res.povm, res.certificate)
            assert rep.ok, (d, rep.failures)


def test_oracle_runs_in_real_arithmetic_on_a_real_problem():
    # the bit question at mu = 0.3 without its involution fails the rank
    # conditions, so solve falls back to the oracle; its states are real
    bit = bit_problem(0.3)
    p = UsdProblem(bit.rho0, bit.rho1, 0.5, 0.5)
    rep = solve(p)
    assert rep.branch is Branch.ORACLE_ONLY
    assert rep.diagnostics["oracle_converged"] == 1.0
    arrays = (rep.povm.e0, rep.povm.e1, rep.povm.eq, rep.certificate.z)
    assert [a.dtype for a in arrays] == [np.float64] * 4
    assert audit_report(p, rep).ok
    # the same pair in the paper's complex basis, D^H rho D
    phases = np.diag(np.exp(-0.25j * np.pi * np.arange(4)))
    paper = UsdProblem(*(DensityMatrix.from_matrix(phases.conj().T @ s.matrix @ phases)
                         for s in (bit.rho0, bit.rho1)), 0.5, 0.5)
    reference = solve(paper)
    assert reference.branch is Branch.ORACLE_ONLY
    assert reference.povm.e0.dtype == np.complex128
    assert abs(rep.q_opt - reference.q_opt) <= 1e-12


def test_oracle_rejects_overlapping_supports():
    r0 = DensityMatrix.from_matrix(np.diag([0.5, 0.5, 0.0]))
    r1 = DensityMatrix.from_matrix(np.diag([0.0, 0.5, 0.5]))
    with pytest.raises(InvalidInput, match="supports overlap"):
        oracle_optimize(UsdProblem(r0, r1, 0.5, 0.5))


def test_oracle_result_fields():
    p = _pure_pair(0.5)
    res = oracle_optimize(p)
    assert res.iterations > 0
    assert res.converged
    assert res.stop == "converged"
    assert 0.0 <= res.duality_gap <= 1e-8
    assert 0.0 <= res.q_opt <= 1.0
    assert res.certificate.success_trace == float(np.trace(res.certificate.z).real)
    mn = psd_check(res.povm.eq)[1]
    assert mn >= -1e-9


def test_oracle_converges_on_its_last_allowed_step(monkeypatch):
    # the iterate the last allowed step produces is still measured
    p = rank_failing_problem(np.random.default_rng(0), 5)
    steps = oracle_optimize(p).iterations
    monkeypatch.setattr(oracle, "MAX_STEPS", steps)
    res = oracle_optimize(p)
    assert (res.iterations, res.converged) == (steps, True)
    assert res.stop == "converged"


def test_oracle_stops_at_max_steps(monkeypatch):
    p = rank_failing_problem(np.random.default_rng(0), 5)
    monkeypatch.setattr(oracle, "MAX_STEPS", 3)
    res = oracle_optimize(p)
    assert (res.iterations, res.converged, res.stop) == (3, False, "max_steps")
    assert validate_povm(p, res.povm).ok


def test_oracle_stops_when_centring_runs_out(monkeypatch):
    # no iterate meets a zero complementarity target, so once the gap is
    # small the one allowed centring step is spent and the loop stops
    p = rank_failing_problem(np.random.default_rng(0), 5)
    monkeypatch.setattr(oracle, "COMPL_TOL", 0.0)
    monkeypatch.setattr(oracle, "MAX_CENTRING", 1)
    res = oracle_optimize(p)
    assert (res.converged, res.stop) == (False, "max_centring")
    assert 0.0 <= res.duality_gap <= 1e-8


def test_oracle_keeps_the_last_iterate_on_a_linear_algebra_error(monkeypatch):
    p = rank_failing_problem(np.random.default_rng(0), 5)
    cholesky = np.linalg.cholesky
    calls = []

    def failing_third(a):
        calls.append(a)
        if len(calls) == 3:
            raise np.linalg.LinAlgError("injected: matrix is not positive definite")
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", failing_third)
    res = oracle_optimize(p)
    assert (res.iterations, res.converged, res.stop) == (2, False, "lin_alg_error")
    assert validate_povm(p, res.povm).ok


def test_oracle_step_cost(monkeypatch):
    # one factorisation, its inverse, at most two Schur solves and two
    # step-length eigvalsh calls per Newton step
    p = rank_failing_problem(np.random.default_rng(1), 5)
    counts = Counter()
    for name in ("cholesky", "inv", "solve", "eigvalsh"):
        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    res = oracle_optimize(p)
    assert res.converged
    assert sum(counts.values()) <= 6 * res.iterations, (res.iterations, counts)
    assert counts["cholesky"] == counts["inv"] == res.iterations
