"""Property tests of the spectral kernels: the eigenvalue-based operator
norm, the fidelity operators taken from one SVD, and the fidelity floor
on every solve.

Each example draws a numpy seed and builds its matrices from it, so the
examples are reproducible; the profile is derandomized, so every run
checks the same ones.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import first_class_instance, rand_subspace_density, random_gu4_problem, random_problem
from usdisc import DensityMatrix, UsdProblem, fidelity_operators, solve
from usdisc.linalg import dagger, hermitize, psd_check, spectral_norm, sqrt_psd, trace

PROFILE = settings(derandomize=True, deadline=None, max_examples=60, database=None)
seeds = st.integers(0, 2**32 - 1)


@PROFILE
@given(seed=seeds, d=st.integers(1, 8), exponent=st.integers(-15, 3),
       hermitian=st.booleans(), stack=st.integers(1, 3))
def test_spectral_norm_is_the_largest_singular_value(seed, d, exponent, hermitian, stack):
    rng = np.random.default_rng(seed)
    a = 10.0 ** exponent * (rng.standard_normal((stack, d, d))
                            + 1j * rng.standard_normal((stack, d, d)))
    if hermitian:
        a = hermitize(a)
    expected = np.linalg.svd(a, compute_uv=False)[..., 0]
    got = spectral_norm(a)
    assert np.all(np.abs(got - expected) <= 1e-12 * expected)
    for one, value in zip(a, expected):
        assert abs(spectral_norm(one) - value) <= 1e-12 * value


def test_spectral_norm_of_zero_is_zero():
    for d in range(1, 9):
        assert spectral_norm(np.zeros((d, d), complex)) == 0.0
    assert np.array_equal(spectral_norm(np.zeros((3, 4, 4))), np.zeros(3))


def _pair(rng, d, r0, r1, orthogonal):
    """States of ranks r0 and r1, on orthogonal supports when asked."""
    if not orthogonal:
        return rand_subspace_density(rng, d, r0), rand_subspace_density(rng, d, r1)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(g)
    states = []
    for cols in (q[:, :r0], q[:, r0:r0 + r1]):
        w = rng.uniform(0.3, 1.0, cols.shape[1])
        m = hermitize((cols * w) @ dagger(cols))
        states.append(m / trace(m).real)
    return states


@PROFILE
@given(seed=seeds, d=st.integers(2, 8), data=st.data(), orthogonal=st.booleans())
def test_fidelity_operators_from_one_svd(seed, d, data, orthogonal):
    rng = np.random.default_rng(seed)
    r0 = data.draw(st.integers(1, d - 1 if orthogonal else d))
    r1 = data.draw(st.integers(1, d - r0 if orthogonal else d))
    rho0, rho1 = _pair(rng, d, r0, r1, orthogonal)
    p = UsdProblem(DensityMatrix.from_matrix(rho0), DensityMatrix.from_matrix(rho1), 0.5, 0.5)
    fd = fidelity_operators(p)
    s0, s1 = p.rho0.sqrt, p.rho1.sqrt

    sandwich = hermitize(s0 @ rho1 @ s0)
    assert np.abs(fd.f0 @ fd.f0 - sandwich).max() <= 1e-9
    assert psd_check(fd.f0)[0] and psd_check(fd.f1)[0]
    assert abs(trace(fd.f0).real - fd.fidelity) <= 1e-12
    assert abs(trace(fd.f1).real - fd.fidelity) <= 1e-12
    assert np.abs(dagger(fd.polar) @ fd.polar - np.eye(d)).max() <= 1e-12
    if orthogonal:
        assert abs(fd.fidelity) <= 1e-12
    else:
        # the square root of the sandwich, which the fidelity was once
        # taken from; on orthogonal supports its noise eigenvalues fall
        # below its negativity bound and it raises
        assert abs(fd.fidelity - trace(sqrt_psd(sandwich)).real) <= 1e-12


@PROFILE
@given(seed=seeds, d=st.integers(2, 5), kind=st.sampled_from(["random", "first_class", "gu4"]))
def test_solve_never_beats_the_fidelity_floor(seed, d, kind):
    rng = np.random.default_rng(seed)
    if kind == "gu4":
        p = random_gu4_problem(rng)
    elif kind == "first_class":
        p = first_class_instance(rng, d)
    else:
        p = random_problem(rng, d)
    floor = 2.0 * math.sqrt(p.eta0 * p.eta1) * fidelity_operators(p).fidelity
    assert solve(p).q_opt >= floor - 1e-9
