import re

import numpy as np
import pytest

from conftest import always_fail, random_problem
from usdisc import (
    DensityMatrix,
    Povm,
    UsdProblem,
    failure_probability,
    fidelity_operators,
    solve_first_class,
    validate_povm,
    validate_problem,
    verify_gu_structure,
)
from usdisc.bb84 import bit_problem, build_states
from usdisc.errors import InvalidInput
from usdisc.linalg import hermitize


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(InvalidInput):
        DensityMatrix.from_matrix(np.diag([0.6, 0.6]))
    # non-finite entries, given or made by symmetrizing or rescaling,
    # each with or without renormalize
    cases = [
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), False),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), True),
        (np.diag([np.inf, 1.0]), False),
        # symmetrizing overflows, and the trace is inf - inf
        (np.diag([1e308, -1e308]), False),
        # symmetrizing overflows entries that the unit trace does not see
        (np.array([[1.0, 1e308], [1e308, 0.0]]), False),
        (np.diag([1e308, -1e308]), True),
        # finite entries whose trace overflows would rescale to zero
        (np.diag([8e307] * 3), True),
        # rescaling by a tiny trace overflows the off-diagonal entries
        (np.array([[1e-300, 1e10], [1e10, 0.0]]), True),
    ]
    for matrix, renormalize in cases:
        with pytest.raises(InvalidInput):
            DensityMatrix.from_matrix(matrix, renormalize=renormalize)


@pytest.mark.parametrize("shape", [(0, 0), (2, 0, 0)], ids=["empty", "stack_of_empty"])
def test_an_empty_matrix_is_refused_naming_its_shape(shape):
    with pytest.raises(InvalidInput, match=re.escape(f"got shape {shape}")):
        DensityMatrix.from_matrix(np.zeros(shape))


def test_density_matrix_renormalize_flag():
    dm = DensityMatrix.from_matrix(np.diag([0.6, 0.6]), renormalize=True)
    assert np.trace(dm.matrix).real == pytest.approx(1.0, abs=1e-14)


def test_validate_problem_happy_path():
    rng = np.random.default_rng(0)
    p = random_problem(rng, 4)
    rep = validate_problem(p)
    assert rep.ok, rep.failures


def test_validate_problem_checks_every_instance_of_a_stack():
    stack = build_states([0.3, 0.5, 1.5]).bit_problem()
    rep = validate_problem(stack)
    assert rep.ok, rep.failures
    rows = [validate_problem(UsdProblem(DensityMatrix(stack.rho0.matrix[i]),
                                        DensityMatrix(stack.rho1.matrix[i]), stack.eta0,
                                        stack.eta1, gu_involution=stack.gu_involution))
            for i in range(3)]
    assert list(rep.residuals) == list(rows[0].residuals)
    for name, value in rep.residuals.items():
        expected = [row.residuals[name] for row in rows]
        # the checks of the states give one residual per instance, the
        # priors' one for the stack
        assert (value.tolist() if np.ndim(value) else [value] * 3) == expected, name


def test_validate_problem_flags_states_of_different_dimension():
    p = UsdProblem(DensityMatrix.from_matrix(np.eye(2) / 2),
                   DensityMatrix.from_matrix(np.eye(3) / 3), 0.5, 0.5)
    rep = validate_problem(p)
    assert rep.failures == ["dim_match"] and rep.residuals["dim_match"] == 1


def test_validate_problem_flags_bad_priors():
    rng = np.random.default_rng(1)
    p = random_problem(rng, 3)
    bad = UsdProblem(p.rho0, p.rho1, 0.7, 0.7)
    rep = validate_problem(bad)
    assert not rep.ok
    assert "priors_sum" in rep.failures


def test_always_fail_povm_has_unit_failure():
    rng = np.random.default_rng(2)
    for d in (2, 4):
        p = random_problem(rng, d)
        q, q0, q1 = failure_probability(p, always_fail(d))
        assert q == pytest.approx(1.0, abs=1e-14)
        assert q0 + q1 == pytest.approx(1.0, abs=1e-12)


def test_failure_probability_splits_by_prior():
    rng = np.random.default_rng(3)
    p = random_problem(rng, 4)
    q, q0, q1 = failure_probability(p, always_fail(4))
    assert q0 == pytest.approx(p.eta0, abs=1e-12)
    assert q1 == pytest.approx(p.eta1, abs=1e-12)


def test_validate_povm_accepts_solver_output():
    p = bit_problem(1.5)
    rep = solve_first_class(p)
    out = validate_povm(p, rep.povm)
    assert out.ok, out.failures


def test_validate_povm_flags_error_rate():
    # a POVM that confuses the states must fail the error-free checks
    p = bit_problem(1.5)
    e0 = 0.5 * np.eye(4, dtype=complex)
    e1 = 0.25 * np.eye(4, dtype=complex)
    eq = np.eye(4, dtype=complex) - e0 - e1
    rep = validate_povm(p, Povm(e0, e1, eq))
    assert "error_free_0" in rep.failures
    assert "error_free_1" in rep.failures


def test_validate_povm_flags_non_psd_element():
    p = bit_problem(1.5)
    e0 = np.diag([1.2, 0.0, 0.0, 0.0]).astype(complex)
    eq = np.eye(4) - e0
    rep = validate_povm(p, Povm(e0, np.zeros((4, 4), complex), eq))
    assert "eq_psd" in rep.failures


def test_povm_lower_bound_holds_for_any_valid_povm():
    # overall bound: no error-free measurement beats 2 sqrt(eta0 eta1) F
    rng = np.random.default_rng(4)
    for _ in range(5):
        p = random_problem(rng, 4)
        fd = fidelity_operators(p)
        bound = 2.0 * np.sqrt(p.eta0 * p.eta1) * fd.fidelity
        q, _, _ = failure_probability(p, always_fail(4))
        assert q >= bound - 1e-8


def test_standard_form_report_bit_pair():
    assert not bit_problem(0.5).supports_overlap


def test_standard_form_report_overlapping():
    r0 = DensityMatrix.from_matrix(np.diag([0.5, 0.5, 0.0]))
    r1 = DensityMatrix.from_matrix(np.diag([0.0, 0.5, 0.5]))
    assert UsdProblem(r0, r1, 0.5, 0.5).supports_overlap


def test_verify_gu_structure_accepts_built_states():
    st = build_states(0.8)
    p = UsdProblem(st.rho_0, st.rho_1, 0.5, 0.5, gu_involution=st.u)
    rep = verify_gu_structure(p.rho0, p.rho1, p.gu_involution)
    assert rep.ok, rep.failures


def test_verify_gu_structure_rejects_wrong_involution():
    # a Hermitian unitary involution, but not the one relating the bit states
    st = build_states(0.8)
    p = UsdProblem(st.rho_0, st.rho_1, 0.5, 0.5, gu_involution=np.diag([1.0, 1.0, -1.0, -1.0]))
    rep = verify_gu_structure(p.rho0, p.rho1, p.gu_involution)
    assert not rep.ok
    assert "conjugation" in rep.failures


def test_verify_gu_structure_rejects_non_involution():
    st = build_states(0.8)
    u = st.u.astype(complex).copy()
    u[0, 0] = 0.5
    p = UsdProblem(st.rho_0, st.rho_1, 0.5, 0.5, gu_involution=hermitize(u))
    rep = verify_gu_structure(p.rho0, p.rho1, p.gu_involution)
    assert "u_unitary" in rep.failures or "u_involution" in rep.failures


def test_verify_gu_structure_flags_an_involution_of_the_wrong_shape():
    st = build_states(0.8)
    rep = verify_gu_structure(st.rho_0, st.rho_1, np.eye(3))
    assert rep.failures == ["u_shape"]
