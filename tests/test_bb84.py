import re
from pathlib import Path

import numpy as np
import pytest

from usdisc import (
    Branch,
    DensityMatrix,
    UsdProblem,
    audit_report,
    rank_condition_check,
    solve,
    solve_first_class,
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
        c = coefficients(mu)
        assert sum(x * x for x in c) == pytest.approx(1.0, abs=1e-12)
        assert all(x >= 0 for x in c)


def test_coefficients_small_mu_limit():
    c = coefficients(1e-9)
    np.testing.assert_allclose(c, [1.0, 0.0, 0.0, 0.0], atol=1e-4)


def test_coefficients_reject_negative_mu():
    with pytest.raises(InvalidInput):
        coefficients(-0.1)


def test_build_states_reject_nonpositive_mu():
    with pytest.raises(InvalidInput):
        build_states(0.0)


@pytest.mark.parametrize("mu", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("formula", [coefficients, q_basis_closed_form, bit_spectrum_closed_form,
                                     build_states], ids=lambda f: f.__name__)
def test_a_non_finite_photon_number_is_refused(formula, mu):
    # build_states refuses -inf as a nonpositive photon number
    with pytest.raises(InvalidInput, match="mean photon number must be"):
        formula(mu)


@pytest.mark.parametrize("formula, mu, named", [
    (coefficients, 720.0, 720.0),
    (bit_spectrum_closed_form, 400.0, 400.0),
    (build_states, [1.0, 720.0], 720.0),
], ids=["coefficients", "bit_spectrum_closed_form", "build_states"])
def test_an_overflowing_photon_number_is_invalid_input_naming_it(formula, mu, named):
    with pytest.raises(InvalidInput, match=re.escape(f"mean photon number {named!r} overflows")):
        formula(mu)


def test_a_sweep_into_overflow_names_the_photon_number():
    with pytest.raises(InvalidInput, match=re.escape(
            "sweep failed at mu=720.0: mean photon number 720.0 overflows")):
        sweep(700.0, 720.0, 10.0)


def test_a_long_sweep_into_overflow_fails_without_solving_point_by_point(monkeypatch):
    # once the stacked pass fails, the first photon number past the
    # overflow point is named before any grid point is solved on its own
    import usdisc.bb84

    solved = []
    points = usdisc.bb84._solve_points
    monkeypatch.setattr(usdisc.bb84, "_solve_points", lambda mu: solved.append(mu) or points(mu))
    bad = next(mu for mu in (0.05 + i * 0.1 for i in range(7200)) if mu > 710.5)
    with pytest.raises(InvalidInput, match=re.escape(
            f"sweep failed at mu={bad!r}: mean photon number {bad!r} overflows")):
        sweep(0.05, 720.0, 0.1)
    assert [len(mus) for mus in solved] == [7200]


def test_built_states_are_unit_trace_psd_rank_2():
    for mu in (0.1, 0.9, 2.5):
        st = build_states(mu)
        for dm in (st.rho_r, st.rho_i, st.rho_0, st.rho_1):
            assert np.trace(dm.matrix).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(dm.matrix)[0] >= -1e-12
            assert dm.spectrum.rank() == 2


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
        c = coefficients(mu)
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
        p = st.bit_problem()
        bit = solve(p)
        assert bit.branch is (Branch.FIRST_CLASS_FIDELITY if rank_condition_check(p).both_psd
                              else Branch.GU_PROJECTIVE)
        assert r.q_basis == basis.q_opt
        assert r.q_bit == bit.q_opt
        assert r.branch_bit is bit.branch
        assert r.min_eig_rho0_minus_f0 == rank_condition_check(p).op0_min_eig


def test_sweep_solves_each_side_on_a_view_of_one_stack(monkeypatch):
    # both questions share one stack: its first-class side (the bit
    # question above the threshold and the whole basis question) is
    # built on a view, and the joined measurement and witness are gated
    # once by the stacked verdict, which no row fails
    import usdisc.solvers

    calls = {}

    def recorded(name):
        original = getattr(usdisc.solvers, name)

        def call(p, *args, **kwargs):
            # each call's row count, and whether its states own their data
            calls.setdefault(name, []).append((len(p.rho0.matrix), p.rho0.matrix.flags.owndata))
            return original(p, *args, **kwargs)

        monkeypatch.setattr(usdisc.solvers, name, call)

    for name in ("_construct_first_class", "_construct_projective", "fit_certificate", "_gate"):
        recorded(name)
    rows = sweep()
    n = len(rows)
    below = sum(r.branch_bit is Branch.GU_PROJECTIVE for r in rows)
    assert calls["_construct_first_class"] == [(2 * n - below, False)]
    assert [count for count, _ in calls["_construct_projective"]] == [below]
    assert calls["_gate"] == calls["fit_certificate"] == [(2 * n, True)]


def test_points_in_any_order_match_scalar_solves_bitwise():
    # neither side of the threshold is a run of consecutive rows here, so
    # each side is solved on a copy of its rows instead of a view
    import usdisc.bb84

    mus = [1.5, 0.3, 2.0, 0.5, 0.8, 0.1]
    rows = usdisc.bb84._solve_points(mus)
    assert [r.mu for r in rows] == mus
    assert [r.branch_bit for r in rows][:2] == [Branch.FIRST_CLASS_FIDELITY, Branch.GU_PROJECTIVE]
    _assert_rows_match_scalar_solves(rows)


def test_a_sweep_at_half_pi_keeps_the_basis_question_analytic():
    # near pi/2 one singular value of the basis pair's support core is
    # about 1e-8; a cut on its square dropped it, the basis question went
    # to the oracle, and the sweep refused the oracle's q
    mu = 1.5707963867948966
    assert main(["bb84-sweep", "--mu-start", repr(mu), "--mu-end", "1.58",
                 "--mu-step", "0.05"]) == 0
    (row,) = sweep(mu, 1.58, 0.05)
    assert row.q_basis == pytest.approx(q_basis_closed_form(mu), abs=1e-11)
    assert solve(basis_problem(mu)).branch is Branch.FIRST_CLASS_FIDELITY


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


@pytest.mark.parametrize("grid", [
    (0.05, float("inf"), 0.05),
    (0.05, 3.0, float("inf")),
    (float("-inf"), 3.0, 0.05),
    (float("nan"), 3.0, 0.05),
    (0.05, float("nan"), 0.05),
    (0.05, 3.0, float("nan")),
])
def test_sweep_refuses_a_non_finite_grid(grid):
    with pytest.raises(InvalidInput, match="grid must be finite"):
        sweep(*grid)


def test_sweep_refuses_too_many_points_before_building_the_grid(monkeypatch):
    import usdisc.bb84

    built = []
    monkeypatch.setattr(usdisc.bb84, "_solve_points", lambda mus: built.append(len(mus)) or [])
    limit = usdisc.bb84.MAX_GRID_POINTS
    # 1e-300 asks for about 3e300 points, 1e-320 (subnormal) for more than
    # a float holds; both are refused before any list is made
    for step in (1e-300, 1e-320, 1.0 / limit):
        with pytest.raises(InvalidInput, match=f"limit of {limit} per sweep"):
            sweep(1.0, 2.0, step)
    assert built == []
    sweep(1.0, 2.0, 1.0 / (limit - 1))
    assert built == [limit]


def test_sweep_falls_back_to_points_when_the_stack_fails(monkeypatch):
    import usdisc.solvers

    rows = sweep(0.5, 1.0, 0.1)
    expected = sweep_csv(rows)
    projective = usdisc.solvers._construct_projective

    # solve retries the rows of a failed stack one at a time, each as a
    # single problem
    def stack_only_failure(p):
        if p.rho0.matrix.ndim > 2:
            raise BranchNotApplicable("injected failure on a stack", cause="certificate")
        return projective(p)

    monkeypatch.setattr(usdisc.solvers, "_construct_projective", stack_only_failure)
    calls = _recorded_build_states(monkeypatch)
    assert sweep_csv(sweep(0.5, 1.0, 0.1)) == expected
    # the retry happens inside solve, on the stack already built
    assert len(calls) == 1
    # a failure at one point as well: that point falls back to the oracle
    bad = 0.5 + 0.1
    target = build_states(bad).rho_0.matrix

    def point_failure(p):
        if np.array_equal(p.rho0.matrix, target):
            raise BranchNotApplicable("injected failure at a point", cause="certificate")
        return stack_only_failure(p)

    monkeypatch.setattr(usdisc.solvers, "_construct_projective", point_failure)
    fallen = sweep(0.5, 1.0, 0.1)
    assert [r.branch_bit for r in fallen] == [
        Branch.ORACLE_ONLY if r.mu == bad else r.branch_bit for r in rows]
    oracle = solve(bit_problem(bad))
    assert oracle.branch is Branch.ORACLE_ONLY
    for r, analytic in zip(fallen, rows):
        if r.mu == bad:
            assert r.q_bit == oracle.q_opt
            assert abs(r.q_bit - analytic.q_bit) <= oracle.diagnostics["oracle_duality_gap"]
        else:
            assert r == analytic


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
    # the first-class construction refuses the stack as a whole; solve
    # routes each side of the regime decision to its own branch
    stack = build_states([0.3, 1.5]).bit_problem()
    with pytest.raises(BranchNotApplicable) as err:
        solve_first_class(stack)
    assert err.value.cause == "rank_conditions"
    assert solve(stack).branch == (Branch.GU_PROJECTIVE, Branch.FIRST_CLASS_FIDELITY)
    assert solve(stack.take([0])).branch == (Branch.GU_PROJECTIVE,)
    assert solve(stack.take([1])).branch == (Branch.FIRST_CLASS_FIDELITY,)


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
    assert full <= 4
    assert full == six


def _solved_arrays(p):
    """Every array a solve of p decomposes, builds or returns."""
    rep = solve(p)
    fd = fidelity_operators(p)
    return [p.rho0.spectrum.eigenvectors, p.rho1.spectrum.eigenvectors,
            p.sum_spectrum.eigenvectors, p.rho0.factor, p.rho1.factor,
            fd.f0, rep.povm.e0, rep.povm.e1, rep.povm.eq,
            rep.certificate.z]


def _complex_copy(p):
    """p with its states and involution stored as complex128 arrays."""
    return UsdProblem(DensityMatrix.from_matrix(p.rho0.matrix.astype(complex)),
                      DensityMatrix.from_matrix(p.rho1.matrix.astype(complex)),
                      p.eta0, p.eta1, gu_involution=p.gu_involution.astype(complex))


# the change of basis D = diag(exp(-i k pi / 4)) that makes the bit states real
PHASES = np.diag(np.exp(-0.25j * np.pi * np.arange(4)))


def _paper_form(p):
    """The bit question p as the paper writes it, D^H rho D: complex."""
    rho0, rho1, u = (PHASES.conj().T @ a @ PHASES
                     for a in (p.rho0.matrix, p.rho1.matrix, p.gu_involution))
    return UsdProblem(DensityMatrix.from_matrix(rho0), DensityMatrix.from_matrix(rho1),
                      p.eta0, p.eta1, gu_involution=u)


@pytest.mark.parametrize("mu", [0.3, 1.5, GRID[::7]], ids=["projective", "first_class", "stack"])
def test_real_valued_problem_is_solved_in_real_arithmetic(mu):
    # the dtype follows the input: both real questions stay float64
    # through every decomposition, the measurement and the witness, and
    # the bit question in the paper's complex form stays complex128
    st = build_states(mu)
    assert all(a.dtype == np.float64 for a in _solved_arrays(st.basis_problem()))
    assert all(a.dtype == np.float64 for a in _solved_arrays(st.bit_problem()))
    assert all(a.dtype == np.complex128 for a in _solved_arrays(_paper_form(st.bit_problem())))


@pytest.mark.parametrize("mu", [0.3, GRID], ids=["point", "default_grid"])
def test_real_basis_problem_matches_the_complex_one(mu):
    real_problem = build_states(mu).basis_problem()
    reps = []
    for p in (real_problem, _complex_copy(real_problem)):
        rep = solve_first_class(p)
        assert validate_povm(p, rep.povm).ok
        assert verify_certificate(p, rep.povm, rep.certificate).ok
        reps.append(rep)
    assert np.max(np.abs(np.asarray(reps[0].q_opt) - reps[1].q_opt)) <= 1e-15


@pytest.mark.parametrize("mu", [0.3, 1.5], ids=["projective", "first_class"])
def test_real_form_of_the_bit_question_solves_alike(mu):
    # the library's bit states are the paper's, D^H rho D, in the basis D
    # that makes them real; both forms solve on the same branch
    p = bit_problem(mu)
    paper = _paper_form(p)
    c = np.array(coefficients(mu))
    pm, mp = (1.0 - 1j) / 2.0, (1.0 + 1j) / 2.0
    written_out = np.outer(c, c) * np.array([[1.0, pm, 0.0, mp], [mp, 1.0, pm, 0.0],
                                             [0.0, mp, 1.0, pm], [pm, 0.0, mp, 1.0]])
    assert np.max(np.abs(paper.rho0.matrix - written_out)) <= 1e-16
    assert p.rho0.matrix.dtype == np.float64
    assert paper.rho0.matrix.dtype == np.complex128
    reference = solve(paper)
    rep = solve(p)
    assert audit_report(p, rep).ok
    assert rep.branch is reference.branch
    assert rep.q_opt == pytest.approx(reference.q_opt, abs=1e-14)


def test_default_sweep_runs_in_real_arithmetic(monkeypatch):
    # every array that the default sweep's solves decompose, build or
    # return is float64: the states and involutions, their spectra, the
    # fidelity pair, the measurement, the witness, the kernel-compressed
    # involution k and the projective x
    import usdisc.bb84
    import usdisc.solvers

    solved, compressed, witnessed = [], [], []
    route = usdisc.bb84.solve
    compress = usdisc.solvers._kernel_involution
    witness = usdisc.solvers.symmetric_projective_witness

    def recorded_solve(p):
        rep = route(p)
        solved.append((p, rep))
        return rep

    def recorded_compression(p):
        k = compress(p)
        compressed.append(k)
        return k

    def recorded_witness(p, x, u):
        witnessed.append(x)
        return witness(p, x, u)

    monkeypatch.setattr(usdisc.bb84, "solve", recorded_solve)
    monkeypatch.setattr(usdisc.solvers, "_kernel_involution", recorded_compression)
    monkeypatch.setattr(usdisc.solvers, "symmetric_projective_witness", recorded_witness)
    rows = sweep()
    assert len(solved) == len(compressed) == len(witnessed) == 1
    assert {r.branch_bit for r in rows} == {Branch.GU_PROJECTIVE, Branch.FIRST_CLASS_FIDELITY}
    # both questions share the stack's involution
    arrays = [witnessed[0], compressed[0], solved[0][0].gu_involution]
    for p, rep in solved:
        fd = p.fidelity_pair
        arrays += [p.rho0.matrix, p.rho1.matrix,
                   p.rho0.factor, p.rho1.factor, p.rho0.support.kernel_projector,
                   p.rho1.support.kernel_projector,
                   fd.s, fd.w, fd.core_polar, fd.vectors0, fd.rank_operators,
                   fd.rank_report.op0_min_eig, fd.f0,
                   rep.povm.e0, rep.povm.e1, rep.povm.eq, rep.certificate.z]
        for sys in (p.rho0.spectrum, p.rho1.spectrum, p.sum_spectrum):
            arrays += [sys.eigenvalues, sys.eigenvectors]
    assert [a.dtype for a in arrays] == [np.float64] * len(arrays)


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
