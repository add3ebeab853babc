"""Each check pass makes one stacked LAPACK call, with the bits of one
call per matrix, and a sub-stack reuses its parent's decompositions."""

from collections import Counter

import numpy as np
import pytest

from conftest import first_class_instance
from usdisc import (
    DensityMatrix,
    UsdProblem,
    audit_report,
    fidelity_operators,
    projectivity_check,
    rank_condition_check,
    serialize,
    solve,
    solve_first_class,
    validate_povm,
    validate_problem,
    verify_certificate,
)
from usdisc.bb84 import bit_problem, build_states
from usdisc.linalg import at_least, hermitize, spectral_norm

GRID = [round(0.05 * k, 2) for k in range(1, 61)]


def _count_calls(monkeypatch, fn, names=("eigh", "eigvalsh", "svd")):
    """Run fn, counting numpy's eigh, eigvalsh and svd calls (or those of
    names) by name."""
    calls = Counter()
    for name in names:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    fn()
    monkeypatch.undo()
    return calls


def _per_matrix(fn, a):
    """fn on one matrix, or on each matrix of a stack in its own call."""
    if a.ndim == 2:
        return fn(a)
    return np.array([fn(x) for x in a])


def _min_eig(a):
    return _per_matrix(lambda x: np.linalg.eigvalsh(hermitize(x))[0], a)


def _norm(a):
    return _per_matrix(spectral_norm, a)


def _hermitian_norm(a):
    """The larger magnitude at the ends of a Hermitian matrix's spectrum."""
    def norm(x):
        w = np.linalg.eigvalsh(hermitize(x))
        return max(-w[0], w[-1])
    return _per_matrix(norm, a)


def _scalar_case():
    p = first_class_instance(np.random.default_rng(3), 4)
    return p, solve_first_class(p)


def _stack_case():
    p = build_states(GRID).basis_problem()
    return p, solve_first_class(p)


def _decompose(p):
    for state in (p.rho0, p.rho1):
        state.spectrum, state.factor, state.support
    p.sum_spectrum, p.supports_overlap


def test_take_reuses_the_stack_decompositions(monkeypatch):
    stack = build_states(GRID).bit_problem()
    _decompose(stack)
    rows = np.array([0, 7, 8, 31, 59])
    sub = stack.take(rows)
    assert _count_calls(monkeypatch, lambda: _decompose(sub))["eigh"] == 0

    fresh = UsdProblem(DensityMatrix(stack.rho0.matrix[rows]),
                       DensityMatrix(stack.rho1.matrix[rows]), 0.5, 0.5,
                       gu_involution=stack.gu_involution)
    for kept, built in ((sub.rho0, fresh.rho0), (sub.rho1, fresh.rho1)):
        assert (kept.spectrum.eigenvalues == built.spectrum.eigenvalues).all()
        assert (kept.spectrum.eigenvectors == built.spectrum.eigenvectors).all()
        assert (kept.factor == built.factor).all()
        assert (kept.support.support_projector == built.support.support_projector).all()
        assert (kept.support.kernel_projector == built.support.kernel_projector).all()
        assert kept.support.rank == built.support.rank
    assert (sub.sum_spectrum.eigenvalues == fresh.sum_spectrum.eigenvalues).all()
    assert (sub.sum_spectrum.eigenvectors == fresh.sum_spectrum.eigenvectors).all()
    assert sub.supports_overlap == fresh.supports_overlap


def test_a_slice_of_rows_keeps_the_involution_and_views_the_decompositions(monkeypatch):
    # the solve of a stack split by the regime decision builds each side
    # on such a slice, under the stack's involution
    stack = build_states(GRID[:6]).bit_problem()
    bare = UsdProblem(stack.rho0, stack.rho1, 0.5, 0.5)
    _decompose(stack)
    sub = stack.take(slice(1, 4))
    assert sub.gu_involution is stack.gu_involution
    assert bare.take([0]).gu_involution is None
    assert _count_calls(monkeypatch, lambda: _decompose(sub))["eigh"] == 0
    # a slice of rows takes views of the stack's decompositions
    assert np.shares_memory(sub.rho0.factor, stack.rho0.factor)
    assert np.shares_memory(sub.sum_spectrum.eigenvectors, stack.sum_spectrum.eigenvectors)


@pytest.mark.parametrize("make", [
    lambda: first_class_instance(np.random.default_rng(3), 4),
    lambda: build_states(GRID).bit_problem(),
], ids=["complex", "real_stack"])
def test_decompose_takes_the_three_in_one_call_with_the_bits_of_three(monkeypatch, make):
    p, lazy = make(), make()
    assert _count_calls(monkeypatch, p.decompose) == {"eigh": 1}
    assert _count_calls(monkeypatch, p.decompose) == {}
    pairs = [(p.rho0.spectrum, lazy.rho0.spectrum), (p.rho1.spectrum, lazy.rho1.spectrum),
             (p.sum_spectrum, lazy.sum_spectrum)]
    for kept, alone in pairs:
        assert (kept.eigenvalues == alone.eigenvalues).all()
        assert (kept.eigenvectors == alone.eigenvectors).all()


def test_take_of_an_undecomposed_stack_decomposes_lazily(monkeypatch):
    stack = build_states(GRID[:4]).bit_problem()
    sub = stack.take([1, 2])
    assert not any(name in vars(sub.rho0) for name in ("spectrum", "factor", "support"))
    assert _count_calls(monkeypatch, lambda: sub.rho0.factor)["eigh"] == 1


def test_rank_check_on_a_sub_stack_reads_the_cached_spectrum(monkeypatch):
    stack = build_states(GRID).bit_problem()
    _decompose(stack)
    stack.fidelity_pair.rank_report
    rows = np.array([0, 7, 8, 31, 59])
    assert _count_calls(monkeypatch, lambda: rank_condition_check(stack.take(rows))) == {}

    # the slices hold the bits the sub-stack computes on its own
    kept = rank_condition_check(stack.take(rows))
    fresh = rank_condition_check(UsdProblem(DensityMatrix(stack.rho0.matrix[rows]),
                                            DensityMatrix(stack.rho1.matrix[rows]), 0.5, 0.5))
    for name in ("op0_min_eig", "op1_min_eig", "both_psd"):
        assert np.array_equal(getattr(kept, name), getattr(fresh, name)), name


@pytest.mark.parametrize("case", [_scalar_case, _stack_case], ids=["scalar", "bb84_stack"])
def test_each_check_pass_makes_one_stacked_call(monkeypatch, case):
    p, report = case()
    m, cert = report.povm, report.certificate
    assert _count_calls(monkeypatch, lambda: validate_povm(p, m)) == {"eigvalsh": 1}
    # the solve cached p's fidelity pair; a problem on the same states
    # computes its own
    fresh = UsdProblem(p.rho0, p.rho1, p.eta0, p.eta1)
    fresh.supports_overlap
    assert _count_calls(monkeypatch, lambda: fresh.fidelity_pair) == {"svd": 1}
    assert _count_calls(monkeypatch, lambda: rank_condition_check(fresh)) == {"eigvalsh": 1}
    assert _count_calls(monkeypatch, lambda: verify_certificate(p, m, cert)) == {"eigvalsh": 1}
    # the states' spectra are cached by now: one SVD gives both operators
    assert _count_calls(monkeypatch, lambda: fidelity_operators(p)) == {"svd": 1}


@pytest.mark.parametrize("case", [_scalar_case, _stack_case], ids=["scalar", "bb84_stack"])
def test_stacked_residuals_equal_per_matrix_calls(case):
    p, report = case()
    m, z = report.povm, hermitize(report.certificate.z)
    r0, r1 = p.rho0.matrix, p.rho1.matrix
    k0, k1 = p.rho0.support.kernel_projector, p.rho1.support.kernel_projector

    povm = validate_povm(p, m).residuals
    for name, el in (("e0", m.e0), ("e1", m.e1), ("eq", m.eq)):
        assert np.all(povm[f"{name}_psd"] == at_least(-_min_eig(el), 0.0)), name

    cert = verify_certificate(p, m, report.certificate).residuals
    expected = {
        "z_min_eig": _min_eig(z),
        "kernel1_inequality_min_eig": _min_eig(k1 @ (z - p.eta0 * r0) @ k1),
        "kernel0_inequality_min_eig": _min_eig(k0 @ (z - p.eta1 * r1) @ k0),
        "z_annihilates_eq": _norm(z @ m.eq),
        "e0_equality": _hermitian_norm(m.e0 @ (z - p.eta0 * r0) @ m.e0),
        "e1_equality": _hermitian_norm(m.e1 @ (z - p.eta1 * r1) @ m.e1),
    }
    for name, value in expected.items():
        assert np.all(cert[name] == value), name
    for name in ("z_psd", "kernel1_inequality", "kernel0_inequality"):
        source = "z_min_eig" if name == "z_psd" else f"{name}_min_eig"
        assert np.all(cert[name] == at_least(-expected[source], 0.0)), name


def _bare_bit_pair():
    p = bit_problem(0.3)
    return UsdProblem(p.rho0, p.rho1, 0.5, 0.5)


def _read_back(p):
    """A solve report of p as certify reads it: decoded from its text, with
    no decomposition cached."""
    text = serialize.dumps(serialize.report_to_obj(p, solve(p)))
    return serialize.report_from_obj(serialize.loads(text))


@pytest.mark.parametrize("make, expected", [
    (lambda: first_class_instance(np.random.default_rng(3), 4), {"eigvalsh": 2, "svd": 1}),
    (lambda: bit_problem(0.3), {"eigvalsh": 1}),
    (_bare_bit_pair, {"eigvalsh": 1}),
], ids=["first_class", "projective", "oracle"])
def test_the_audit_takes_its_spectra_in_one_call_with_the_bits_of_separate_checks(monkeypatch,
                                                                                  make, expected):
    # besides the regime verdict a first-class label needs, one eigenvalue
    # call covers the elements, the witness conditions and, for a
    # projective label, the projectivity matrices
    p, report = _read_back(make())
    p.decompose()
    assert _count_calls(monkeypatch, lambda: audit_report(p, report)) == expected
    p, report = _read_back(make())
    audit = audit_report(p, report)
    assert audit.ok, audit.failures
    separate = {**validate_problem(p).residuals, **validate_povm(p, report.povm).residuals,
                **verify_certificate(p, report.povm, report.certificate).residuals}
    assert {k: audit.residuals[k] for k in separate} == separate
    assert projectivity_check(report.povm).ok == (report.branch.value == "GuProjective")
