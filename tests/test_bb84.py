import re
from pathlib import Path

import numpy as np
import pytest

from usdisc import (
    Branch,
    DensityMatrix,
    UsdProblem,
    audit_report,
    solve,
    solve_first_class,
    solve_gu_4d,
    validate_povm,
    validate_problem,
    verify_certificate,
    verify_gu_structure,
)
from usdisc.bb84 import (
    Bb84SweepRow,
    basis_problem,
    bit_problem,
    bit_spectrum_closed_form,
    build_states,
    coefficients,
    find_mu0,
    locate_threshold,
    q_basis_closed_form,
    sweep,
    sweep_csv,
)
from usdisc.cli import main
from usdisc.errors import BranchNotApplicable, InvalidInput, UsdError
from usdisc.linalg import eigh, hermitize
from usdisc import fidelity_operators

GRID = [round(0.05 * k, 2) for k in range(1, 61)]


def test_coefficients_are_normalized():
    for mu in (0.05, 0.5, 1.7, 3.0):
        c = coefficients(mu).c
        assert sum(x * x for x in c) == pytest.approx(1.0, abs=1e-12)
        assert all(x >= 0 for x in c)


def test_coefficients_small_mu_limit():
    c = coefficients(1e-9).c
    np.testing.assert_allclose(c, [1.0, 0.0, 0.0, 0.0], atol=1e-4)


def test_coefficients_reject_negative_mu():
    with pytest.raises(InvalidInput):
        coefficients(-0.1)


def test_build_states_reject_nonpositive_mu():
    with pytest.raises(InvalidInput):
        build_states(0.0)


def test_built_states_are_unit_trace_psd_rank_2():
    for mu in (0.1, 0.9, 2.5):
        st = build_states(mu)
        for dm in (st.rho_r, st.rho_i, st.rho_0, st.rho_1):
            assert np.trace(dm.matrix).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(dm.matrix)[0] >= -1e-12
            assert dm.declared_rank == 2


def test_both_pairs_validate_and_carry_involutions():
    for mu in GRID[::6]:
        pb = basis_problem(mu)
        pt = bit_problem(mu)
        for p in (pb, pt):
            assert validate_problem(p).ok
            assert verify_gu_structure(p.rho0, p.rho1, p.gu_involution).ok


def test_basis_fidelity_closed_form():
    # F = |c0^2 - c2^2| + |c1^2 - c3^2| for the basis-value pair
    for mu in GRID[::5]:
        st = build_states(mu)
        c = coefficients(mu).c
        expected = abs(c[0] ** 2 - c[2] ** 2) + abs(c[1] ** 2 - c[3] ** 2)
        fd = fidelity_operators(basis_problem(mu))
        assert fd.fidelity == pytest.approx(expected, abs=1e-10)


def test_bit_fidelity_is_exponential():
    for mu in GRID[::5]:
        fd = fidelity_operators(bit_problem(mu))
        assert fd.fidelity == pytest.approx(np.exp(-mu), abs=1e-9)


def test_q_basis_closed_form_values():
    assert q_basis_closed_form(1.0) == pytest.approx(
        np.exp(-1.0) * (abs(np.cos(1.0)) + abs(np.sin(1.0))), abs=1e-15
    )


def test_bit_spectrum_closed_form_tracks_numerics():
    for mu in (0.25, 0.8, 1.6):
        p = bit_problem(mu)
        fd = fidelity_operators(p)
        w = np.sort(eigh(hermitize(p.rho0.matrix - fd.f0)).eigenvalues)
        lam_plus, lam_minus = bit_spectrum_closed_form(mu)
        np.testing.assert_allclose(
            w, np.sort([lam_minus, 0.0, 0.0, lam_plus]), atol=1e-8
        )


def test_locate_threshold_converges():
    mu0, iterations = locate_threshold()
    assert 0.7188 <= mu0 <= 0.7198
    assert iterations < 100
    assert find_mu0() == mu0


def test_sweep_rows_are_ordered_and_consistent():
    rows = list(sweep(0.1, 0.6, 0.1))
    assert [round(r.mu, 10) for r in rows] == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    for r in rows:
        assert isinstance(r, Bb84SweepRow)
        assert r.q_basis == pytest.approx(q_basis_closed_form(r.mu), abs=1e-8)
        # below the threshold the rank condition fails and the branch flips
        assert (r.min_eig_rho0_minus_f0 < 0) == (r.branch_bit is Branch.GU_PROJECTIVE)


def test_sweep_deterministic():
    a = sweep_csv(list(sweep(0.2, 1.0, 0.2)))
    b = sweep_csv(list(sweep(0.2, 1.0, 0.2)))
    assert a == b


def test_sweep_csv_shape():
    text = sweep_csv(list(sweep(0.3, 0.5, 0.1)))
    lines = text.splitlines()
    assert lines[0] == "mu,q_basis,q_bit,branch_bit,min_eig"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0.3"
    assert first[3] in ("GuProjective", "FirstClassFidelity")
    # 12 significant digits on numeric columns
    assert len(first[1].replace(".", "").replace("-", "").lstrip("0")) <= 12
    assert text.endswith("\n")


def _recorded_build_states(monkeypatch):
    """Record the photon numbers each build_states call receives."""
    import usdisc.bb84

    calls = []
    build = usdisc.bb84.build_states

    def recorded(mu):
        calls.append(mu)
        return build(mu)

    monkeypatch.setattr(usdisc.bb84, "build_states", recorded)
    return calls


@pytest.mark.parametrize("grid", [
    (0.05, 3.0, 0.05),
    (0.5, 1.0, 0.1),
    (0.8, 2.0, 0.2),
], ids=["default", "straddles_mu0", "above_mu0"])
def test_stacked_sweep_matches_scalar_solves_bitwise(monkeypatch, grid):
    mu0 = find_mu0()
    calls = _recorded_build_states(monkeypatch)
    rows = sweep(*grid)
    # one stacked pass, no point-by-point fallback
    assert len(calls) == 1 and len(calls[0]) == len(rows)
    if grid[0] < mu0:
        assert {r.branch_bit for r in rows} == {Branch.GU_PROJECTIVE, Branch.FIRST_CLASS_FIDELITY}
    else:
        assert {r.branch_bit for r in rows} == {Branch.FIRST_CLASS_FIDELITY}
    _assert_rows_match_scalar_solves(rows)


def _assert_rows_match_scalar_solves(rows):
    for r in rows:
        st = build_states(r.mu)
        basis = solve_first_class(st.basis_problem())
        bit, _ = solve_gu_4d(st.bit_problem())
        assert r.q_basis == basis.q_opt
        assert r.q_bit == bit.q_opt
        assert r.branch_bit is bit.branch
        assert r.min_eig_rho0_minus_f0 == bit.diagnostics["op0_min_eig"]


def test_sweep_solves_each_side_on_a_view_of_one_stack(monkeypatch):
    import usdisc.bb84

    owned = []
    first_class = usdisc.bb84.solve_first_class

    def recorded(p, fd=None):
        owned.append(p.rho0.matrix.flags.owndata)
        return first_class(p, fd=fd)

    monkeypatch.setattr(usdisc.bb84, "solve_first_class", recorded)
    sweep()
    # the basis question and the bit question above the threshold
    assert owned == [False, False]


def test_points_in_any_order_match_scalar_solves_bitwise():
    # neither side of the threshold is a run of consecutive rows here, so
    # each side is solved on a copy of its rows instead of a view
    import usdisc.bb84

    mus = [1.5, 0.3, 2.0, 0.5, 0.8, 0.1]
    rows = usdisc.bb84._solve_points(mus)
    assert [r.mu for r in rows] == mus
    assert [r.branch_bit for r in rows][:2] == [Branch.FIRST_CLASS_FIDELITY, Branch.GU_PROJECTIVE]
    _assert_rows_match_scalar_solves(rows)


def test_stacked_states_match_scalar_states_bitwise():
    mus = GRID[::7]
    stack = build_states(mus)
    for i, mu in enumerate(mus):
        one = build_states(mu)
        for name in ("rho_r", "rho_i", "rho_0", "rho_1"):
            assert np.array_equal(getattr(stack, name).matrix[i], getattr(one, name).matrix)


def test_sweep_failure_names_the_photon_number(monkeypatch):
    import usdisc.bb84

    mus = [0.3 + i * 0.1 for i in range(6)]
    bad = mus[3]
    closed = usdisc.bb84.q_basis_closed_form
    monkeypatch.setattr(usdisc.bb84, "q_basis_closed_form",
                        lambda mu: closed(mu) + (1.0 if mu == bad else 0.0))
    with pytest.raises(UsdError, match=re.escape(f"sweep failed at mu={bad!r}:")):
        sweep(0.3, 0.8, 0.1)


def test_sweep_falls_back_to_points_when_the_stack_fails(monkeypatch):
    import usdisc.bb84

    expected = sweep_csv(sweep(0.5, 1.0, 0.1))
    projective = usdisc.bb84.gu_4d_projective

    # each point is solved as a stack of one
    def stack_only_failure(p, u, k, op0_min_eig):
        if len(k) > 1:
            raise BranchNotApplicable("injected failure on a stack", cause="certificate")
        return projective(p, u, k, op0_min_eig)

    monkeypatch.setattr(usdisc.bb84, "gu_4d_projective", stack_only_failure)
    calls = _recorded_build_states(monkeypatch)
    assert sweep_csv(sweep(0.5, 1.0, 0.1)) == expected
    # the stacked pass, then each of the six points on its own
    assert len(calls) == 7
    # a failure at one point as well: the error names it and keeps its cause
    bad = 0.5 + 0.1
    target = build_states([bad]).rho_0.matrix

    def point_failure(p, u, k, op0_min_eig):
        if np.array_equal(p.rho0.matrix, target):
            raise BranchNotApplicable("injected failure at a point", cause="certificate")
        return stack_only_failure(p, u, k, op0_min_eig)

    monkeypatch.setattr(usdisc.bb84, "gu_4d_projective", point_failure)
    with pytest.raises(BranchNotApplicable, match=re.escape(f"sweep failed at mu={bad!r}:")) as err:
        sweep(0.5, 1.0, 0.1)
    assert err.value.cause == "certificate"


def test_stack_with_mixed_ranks_is_refused():
    rho0 = np.array([np.diag([0.5, 0.5, 0.0, 0.0]), np.diag([1 / 3, 1 / 3, 1 / 3, 0.0])])
    rho1 = np.array([np.diag([0.0, 0.0, 0.5, 0.5]), np.diag([0.0, 0.0, 0.0, 1.0])])
    p = UsdProblem(DensityMatrix.from_matrix(rho0), DensityMatrix.from_matrix(rho1), 0.5, 0.5)
    with pytest.raises(BranchNotApplicable) as err:
        solve_first_class(p)
    assert err.value.cause == "rank"
    # either instance alone is a valid first-class problem
    for i in range(2):
        assert solve_first_class(p.take([i])).q_opt == pytest.approx(0.0, abs=1e-12)


def test_stack_with_mixed_regimes_is_refused():
    stack = build_states([0.3, 1.5]).bit_problem()
    with pytest.raises(BranchNotApplicable) as err:
        solve_gu_4d(stack)
    assert err.value.cause == "regime"
    assert solve_gu_4d(stack.take([0]))[0].branch is Branch.GU_PROJECTIVE
    assert solve_gu_4d(stack.take([1]))[0].branch is Branch.FIRST_CLASS_FIDELITY


def _count_eigen_calls(monkeypatch, fn):
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(None)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    fn()
    monkeypatch.undo()
    return len(calls)


def test_sweep_eigen_calls_do_not_grow_with_the_grid(monkeypatch):
    full = _count_eigen_calls(monkeypatch, sweep)
    six = _count_eigen_calls(monkeypatch, lambda: sweep(0.5, 1.0, 0.1))
    assert full <= 14
    assert full == six


def _solved_arrays(p):
    """Every array a solve of p decomposes, builds or returns."""
    rep = solve(p)
    fd = fidelity_operators(p)
    return [p.rho0.spectrum.eigenvectors, p.rho1.spectrum.eigenvectors,
            p.sum_spectrum.eigenvectors, p.rho0.sqrt, p.rho1.sqrt,
            fd.f0, fd.f1, fd.polar, rep.povm.e0, rep.povm.e1, rep.povm.eq,
            rep.certificate.z]


def _real_copy(p):
    """p with its states and involution stored as float64 arrays; the
    basis question's entries are real products, so nothing is dropped."""
    for a in (p.rho0.matrix, p.rho1.matrix, p.gu_involution):
        assert not a.imag.any()
    return UsdProblem(DensityMatrix.from_matrix(p.rho0.matrix.real),
                      DensityMatrix.from_matrix(p.rho1.matrix.real),
                      p.eta0, p.eta1, gu_involution=p.gu_involution.real)


@pytest.mark.parametrize("mu", [0.3, 1.5, GRID[::7]], ids=["projective", "first_class", "stack"])
def test_real_valued_problem_is_solved_in_real_arithmetic(mu):
    # the dtype follows the input: a real basis question stays float64
    # through every decomposition, the measurement and the witness, and
    # the bit question, complex by construction, stays complex128
    st = build_states(mu)
    assert all(a.dtype == np.float64 for a in _solved_arrays(_real_copy(st.basis_problem())))
    bit = st.bit_problem()
    if np.ndim(mu):
        bit = bit.take([0])
    assert all(a.dtype == np.complex128 for a in _solved_arrays(bit))


@pytest.mark.parametrize("mu", [0.3, GRID], ids=["point", "default_grid"])
def test_real_basis_problem_matches_the_complex_one(mu):
    complex_problem = build_states(mu).basis_problem()
    reps = []
    for p in (_real_copy(complex_problem), complex_problem):
        rep = solve_first_class(p)
        assert validate_povm(p, rep.povm).ok
        assert verify_certificate(p, rep.povm, rep.certificate).ok
        reps.append(rep)
    assert np.max(np.abs(np.asarray(reps[0].q_opt) - reps[1].q_opt)) <= 1e-15


@pytest.mark.parametrize("mu", [0.3, 1.5], ids=["projective", "first_class"])
def test_real_form_of_the_bit_question_solves_alike(mu):
    # the phases diag(exp(-i k pi / 4)) make the bit states real up to
    # rounding; their real parts take the float64 path through the
    # symmetric solver and, without the involution, through the oracle
    phases = np.diag(np.exp(-0.25j * np.pi * np.arange(4)))
    p = bit_problem(mu)
    real = [phases @ a @ phases.conj().T for a in (p.rho0.matrix, p.rho1.matrix, p.gu_involution)]
    assert max(np.abs(a.imag).max() for a in real) <= 1e-16
    r0, r1, u = (a.real for a in real)
    reference = solve(p)
    for q in (UsdProblem(DensityMatrix.from_matrix(r0), DensityMatrix.from_matrix(r1), 0.5, 0.5,
                         gu_involution=u),
              UsdProblem(DensityMatrix.from_matrix(r0), DensityMatrix.from_matrix(r1), 0.5, 0.5)):
        rep = solve(q)
        assert audit_report(q, rep).ok
        assert rep.q_opt == pytest.approx(reference.q_opt, abs=1e-9)
        if q.gu_involution is not None:
            assert rep.branch is reference.branch
            assert rep.q_opt == pytest.approx(reference.q_opt, abs=1e-14)


def test_default_sweep_matches_the_reference_table(tmp_path):
    # a reference table of the default grid: the photon numbers and
    # branches must match exactly and the failure probabilities to
    # rounding; min_eig is rounding noise on the first-class rows, so it
    # is compared in absolute terms
    out = tmp_path / "sweep.csv"
    assert main(["bb84-sweep", "--output", str(out)]) == 0
    ref = (Path(__file__).parent / "data" / "bb84_sweep_default.csv").read_text()
    got_rows = [line.split(",") for line in out.read_text().splitlines()]
    ref_rows = [line.split(",") for line in ref.splitlines()]
    assert got_rows[0] == ref_rows[0] == ["mu", "q_basis", "q_bit", "branch_bit", "min_eig"]
    assert len(got_rows) == len(ref_rows) == 61
    for got, want in zip(got_rows[1:], ref_rows[1:]):
        assert (got[0], got[3]) == (want[0], want[3])
        for col in (1, 2, 4):
            assert abs(float(got[col]) - float(want[col])) <= 1e-12, (want[0], col)
