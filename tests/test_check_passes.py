"""Each check pass makes one stacked LAPACK call, with the bits of one
call per matrix, and a sub-stack reuses its parent's decompositions."""

from collections import Counter

import numpy as np
import pytest

from conftest import first_class_instance
from usdisc import (
    DensityMatrix,
    UsdProblem,
    fidelity_operators,
    rank_condition_check,
    solve_first_class,
    validate_povm,
    verify_certificate,
)
from usdisc.bb84 import build_states
from usdisc.linalg import at_least, hermitize, spectral_norm

GRID = [round(0.05 * k, 2) for k in range(1, 61)]


def _count_calls(monkeypatch, fn):
    """Run fn, counting numpy's eigh, eigvalsh and svd calls by name."""
    calls = Counter()
    for name in ("eigh", "eigvalsh", "svd"):
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
        state.spectrum, state.sqrt, state.support
    p.sum_spectrum, p.supports_overlap


def test_take_reuses_the_stack_decompositions(monkeypatch):
    stack = build_states(GRID).bit_problem()
    _decompose(stack)
    rows = np.array([0, 7, 8, 31, 59])
    sub = stack.take(rows)
    assert _count_calls(monkeypatch, lambda: _decompose(sub))["eigh"] == 0

    fresh = UsdProblem(DensityMatrix(stack.rho0.matrix[rows], 2),
                       DensityMatrix(stack.rho1.matrix[rows], 2), 0.5, 0.5,
                       gu_involution=stack.gu_involution)
    for kept, built in ((sub.rho0, fresh.rho0), (sub.rho1, fresh.rho1)):
        assert (kept.spectrum.eigenvalues == built.spectrum.eigenvalues).all()
        assert (kept.spectrum.eigenvectors == built.spectrum.eigenvectors).all()
        assert (kept.sqrt == built.sqrt).all()
        assert (kept.support.support_projector == built.support.support_projector).all()
        assert (kept.support.kernel_projector == built.support.kernel_projector).all()
        assert kept.support.rank == built.support.rank
    assert (sub.sum_spectrum.eigenvalues == fresh.sum_spectrum.eigenvalues).all()
    assert (sub.sum_spectrum.eigenvectors == fresh.sum_spectrum.eigenvectors).all()
    assert sub.supports_overlap == fresh.supports_overlap


def test_take_can_give_the_rows_an_involution(monkeypatch):
    # a sweep stacks both questions without an involution and gives the
    # bit question's rows the bit involution
    st = build_states(GRID[:6])
    bare = UsdProblem(st.rho_0, st.rho_1, 0.5, 0.5)
    _decompose(bare)
    sub = bare.take(slice(1, 4), gu_involution=st.u_bit)
    assert sub.gu_involution is st.u_bit
    assert bare.take([0]).gu_involution is None
    assert sub.take([0]).gu_involution is st.u_bit
    assert _count_calls(monkeypatch, lambda: _decompose(sub))["eigh"] == 0
    # a slice of rows takes views of the stack's decompositions
    assert np.shares_memory(sub.rho0.sqrt, bare.rho0.sqrt)
    assert np.shares_memory(sub.sum_spectrum.eigenvectors, bare.sum_spectrum.eigenvectors)


def test_take_of_an_undecomposed_stack_decomposes_lazily(monkeypatch):
    stack = build_states(GRID[:4]).bit_problem()
    sub = stack.take([1, 2])
    assert not any(name in vars(sub.rho0) for name in ("spectrum", "sqrt", "support"))
    assert _count_calls(monkeypatch, lambda: sub.rho0.sqrt)["eigh"] == 1


@pytest.mark.parametrize("case", [_scalar_case, _stack_case], ids=["scalar", "bb84_stack"])
def test_each_check_pass_makes_one_stacked_call(monkeypatch, case):
    p, report = case()
    fd = fidelity_operators(p)
    m, cert = report.povm, report.certificate
    assert _count_calls(monkeypatch, lambda: validate_povm(p, m)) == {"eigvalsh": 1}
    assert _count_calls(monkeypatch, lambda: rank_condition_check(p, fd=fd)) == {"eigvalsh": 1}
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
