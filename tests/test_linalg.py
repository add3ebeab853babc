import numpy as np
import pytest

from usdisc.errors import InvalidInput, NumericalFailure
from usdisc.linalg import (
    eigh,
    hermitize,
    pseudo_inverse,
    psd_check,
    require_hermitian,
    spectral_norm,
    sqrt_psd,
    support_decomposition,
)


def rand_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return hermitize(a)


def rand_psd(rng, d, r=None):
    r = d if r is None else r
    b = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    return hermitize(b @ b.conj().T)


def test_eigh_reconstruction():
    rng = np.random.default_rng(0)
    for d in range(2, 9):
        h = rand_hermitian(rng, d)
        sys = eigh(h)
        rec = sys.eigenvectors @ np.diag(sys.eigenvalues) @ sys.eigenvectors.conj().T
        scale = max(1.0, spectral_norm(h))
        assert spectral_norm(rec - h) <= 1e-10 * scale


def test_eigh_against_characteristic_polynomial():
    """Independent eigenvalue check via Faddeev-LeVerrier plus np.roots.

    The coefficients come from traces of matrix powers and the roots from
    a companion-matrix solve, neither of which shares code with the
    Hermitian eigensolver under test.
    """
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        h = rand_hermitian(rng, d)
        mk = h.copy()
        coeffs = [1.0]
        for k in range(1, d + 1):
            ck = np.trace(mk).real / k
            coeffs.append(-ck)
            if k < d:
                mk = h @ (mk - ck * np.eye(d))
        roots = np.sort(np.roots(coeffs).real)
        w = np.sort(eigh(h).eigenvalues)
        scale = max(1.0, float(np.abs(w).max()))
        np.testing.assert_allclose(w, roots, atol=1e-8 * scale)


def test_eigh_deterministic_and_tie_broken():
    rng = np.random.default_rng(2)
    h = rand_hermitian(rng, 5)
    s1 = eigh(h)
    s2 = eigh(h)
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(s1.eigenvectors, s2.eigenvectors)
    # degenerate spectrum still resolves to one fixed eigenvector choice
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(g)
    deg = hermitize(q @ np.diag([1.0, 1.0, 2.0, 2.0]) @ q.conj().T)
    d1 = eigh(deg)
    d2 = eigh(deg)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


def test_require_hermitian_rejects_skew():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    with pytest.raises(InvalidInput):
        require_hermitian(a + 1e-3 * 1j * np.eye(3) @ a, tol=1e-12, name="a")


def test_sqrt_psd_squares_back():
    rng = np.random.default_rng(4)
    for d in range(2, 8):
        a = rand_psd(rng, d)
        s = sqrt_psd(a)
        np.testing.assert_allclose(s @ s, a, atol=1e-10 * max(1.0, spectral_norm(a)))


def test_sqrt_psd_idempotence_chain():
    # fourth root raised to the fourth power lands back on the input
    rng = np.random.default_rng(5)
    for d in (2, 4, 6):
        a = rand_psd(rng, d)
        quarter = sqrt_psd(sqrt_psd(a))
        np.testing.assert_allclose(
            np.linalg.matrix_power(quarter, 4), a, atol=1e-8
        )


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(NumericalFailure, match="eigenvalue"):
        sqrt_psd(np.diag([1.0, -0.5]))


def test_sqrt_psd_zeroes_sub_cutoff_support():
    # eigenvalues below the relative cutoff must not create phantom support
    a = np.diag([1.0, 1e-14])
    s = sqrt_psd(a)
    assert s[1, 1] == 0.0
    sd = support_decomposition(a)
    assert sd.rank == 1


def test_support_plus_kernel_is_identity():
    rng = np.random.default_rng(6)
    for d in range(2, 8):
        r = int(rng.integers(1, d + 1))
        a = rand_psd(rng, d, r)
        sd = support_decomposition(a)
        np.testing.assert_allclose(
            sd.support_projector + sd.kernel_projector, np.eye(d), atol=1e-12
        )
        assert sd.rank == r


def test_pseudo_inverse_penrose_identities():
    """All four Penrose identities on 1000 random PSD matrices, dims 2-8."""
    rng = np.random.default_rng(7)
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        r = int(rng.integers(1, d + 1))
        a = rand_psd(rng, d, r)
        ap = pseudo_inverse(a)
        tol = 1e-9 * max(1.0, spectral_norm(a), spectral_norm(ap))
        assert spectral_norm(a @ ap @ a - a) <= tol
        assert spectral_norm(ap @ a @ ap - ap) <= tol
        assert spectral_norm(hermitize(a @ ap) - a @ ap) <= tol
        assert spectral_norm(hermitize(ap @ a) - ap @ a) <= tol


def test_psd_check_signs():
    ok, mn = psd_check(np.diag([0.5, 0.0, 1.0]))
    assert ok and mn >= -1e-15
    ok, mn = psd_check(np.diag([0.5, -1e-3]))
    assert not ok
    assert mn == pytest.approx(-1e-3)


@pytest.mark.parametrize("dtype", [int, bool])
def test_integer_and_bool_matrices_come_out_float64(dtype):
    # hermitize halves in place, which an integer array would refuse
    a = np.array([[2, 1, 0], [1, 2, 0], [0, 0, 0]], dtype=dtype)
    sys = eigh(a)
    assert sys.eigenvalues.dtype == np.float64 and sys.eigenvectors.dtype == np.float64
    assert sqrt_psd(a).dtype == np.float64
    assert require_hermitian(a).dtype == np.float64
    np.testing.assert_allclose(require_hermitian(a), a, atol=0.0)
    ok, mn = psd_check(a)
    assert ok and mn == pytest.approx(0.0, abs=1e-15)
    ok, mn = psd_check(np.array([a, a]))
    assert ok.all() and mn.dtype == np.float64


@pytest.mark.parametrize("dtype, expected", [
    (np.float32, np.float64),
    (np.float64, np.float64),
    (np.complex64, np.complex128),
    (np.complex128, np.complex128),
])
def test_dtype_follows_the_input(dtype, expected):
    a = rand_psd(np.random.default_rng(2), 4)
    a = (a.real if np.dtype(dtype).kind == "f" else a).astype(dtype)
    assert require_hermitian(a, tol=1e-6).dtype == expected
    assert eigh(a).eigenvectors.dtype == expected
    assert sqrt_psd(a).dtype == expected
