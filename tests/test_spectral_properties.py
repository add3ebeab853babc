"""Property tests of the spectral kernels: the eigenvalue-based operator
norm, the fidelity operators taken from one SVD of the support core and
checked against the full-space construction, the rank conditions read
in support coordinates, the fidelity floor on every solve, and the
invariance of a solve under a change of basis.

Each example draws a numpy seed and builds its matrices from it, so the
examples are reproducible; the profile is derandomized, so every run
checks the same ones.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import first_class_instance, rand_subspace_density, random_gu4_problem, random_problem
from usdisc import (
    Branch,
    DensityMatrix,
    UsdProblem,
    fidelity_operators,
    fidelity_witness,
    fit_certificate,
    rank_condition_check,
    solve,
    solve_first_class,
)
from usdisc.linalg import (
    REL_CUTOFF,
    dagger,
    hermitize,
    psd_check,
    spectral_norm,
    sqrt_psd,
    trace,
)

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
    s0, s1 = sqrt_psd(p.rho0.matrix), sqrt_psd(p.rho1.matrix)

    sandwich = hermitize(s0 @ rho1 @ s0)
    # F1 is F0 of the pair with the states swapped
    f1 = fidelity_operators(UsdProblem(p.rho1, p.rho0, 0.5, 0.5)).f0
    assert np.abs(fd.f0 @ fd.f0 - sandwich).max() <= 1e-9
    assert psd_check(fd.f0)[0] and psd_check(f1)[0]
    assert abs(trace(fd.f0).real - fd.fidelity) <= 1e-12
    assert abs(trace(f1).real - fd.fidelity) <= 1e-12
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


def _full_space_fidelity(p):
    """F0, F1, F and the polar unitary from the SVD of the d x d product
    sqrt(rho0) sqrt(rho1), with the same cut of the singular values."""
    w, s, vh = np.linalg.svd(sqrt_psd(p.rho0.matrix) @ sqrt_psd(p.rho1.matrix))
    s = np.where(s * s > REL_CUTOFF * (s * s).max(), s, 0.0)
    v = dagger(vh)
    return (hermitize((w * s) @ dagger(w)), hermitize((v * s) @ dagger(v)), s.sum(), w @ vh)


@PROFILE
@given(seed=seeds, d=st.integers(2, 8), data=st.data())
def test_support_core_matches_the_full_space_construction(seed, d, data):
    # every rank pair of a non-overlapping pair, r0 != r1 included
    rng = np.random.default_rng(seed)
    r0 = data.draw(st.integers(1, d - 1))
    r1 = data.draw(st.integers(1, d - r0))
    eta0 = data.draw(st.floats(0.05, 0.95))
    rho0, rho1 = _pair(rng, d, r0, r1, orthogonal=False)
    p = UsdProblem(DensityMatrix.from_matrix(rho0), DensityMatrix.from_matrix(rho1),
                   eta0, 1.0 - eta0)
    assert not p.supports_overlap
    fd = fidelity_operators(p)
    f0, f1, fidelity, _ = _full_space_fidelity(p)
    s0 = sqrt_psd(p.rho0.matrix)
    assert np.abs(fd.f0 - f0).max() <= 1e-12
    # F1 is F0 of the pair with the states swapped
    assert np.abs(fidelity_operators(UsdProblem(p.rho1, p.rho0, 1.0 - eta0, eta0)).f0
                  - f1).max() <= 1e-12
    assert abs(fd.fidelity - fidelity) <= 1e-12
    assert np.abs(fd.f0 @ fd.f0 - hermitize(s0 @ rho1 @ s0)).max() <= 1e-12

    # the polar factor of the core, taken to the supports: its trace
    # against sqrt(rho0) sqrt(rho1) is F
    b0 = p.rho0.spectrum.eigenvectors[:, d - r0:]
    b1 = p.rho1.spectrum.eigenvectors[:, d - r1:]
    polar = b0 @ fd.core_polar @ dagger(b1)
    assert abs(trace(dagger(polar) @ s0 @ sqrt_psd(p.rho1.matrix)).real - fd.fidelity) <= 1e-12

    # min(lowest support-coordinate eigenvalue, 0) is the d x d operator's
    gamma = math.sqrt(p.eta1 / p.eta0)
    rep = rank_condition_check(p)
    for got, op in ((rep.op0_min_eig, rho0 - gamma * f0), (rep.op1_min_eig, rho1 - f1 / gamma)):
        assert abs(got - np.linalg.eigvalsh(hermitize(op))[0]) <= 1e-12


@PROFILE
@given(seed=seeds, d=st.integers(3, 6))
def test_fidelity_witness_verifies_on_first_class_pairs_of_unequal_rank(seed, d):
    rng = np.random.default_rng(seed)
    p = first_class_instance(rng, d)
    while p.rho0.support.rank == p.rho1.support.rank:
        p = first_class_instance(rng, d)
    rep = solve_first_class(p)
    cert = fit_certificate(p, rep.povm, candidate=fidelity_witness(p))
    assert cert is not None
    # the witness Y Y^H on a full polar unitary of sqrt(rho0) sqrt(rho1),
    # whose completion off the supports leaves Z as the support factors give it
    polar = _full_space_fidelity(p)[3]
    y = (math.sqrt(p.eta1) * sqrt_psd(p.rho1.matrix)
         - math.sqrt(p.eta0) * sqrt_psd(p.rho0.matrix) @ polar)
    assert np.abs(cert.z - hermitize(y @ dagger(y))).max() <= 1e-12


def _rotated(p, g):
    """p in the basis of the unitary g: both states and the involution."""
    u = None if p.gu_involution is None else hermitize(g @ p.gu_involution @ dagger(g))
    return UsdProblem(DensityMatrix.from_matrix(hermitize(g @ p.rho0.matrix @ dagger(g))),
                      DensityMatrix.from_matrix(hermitize(g @ p.rho1.matrix @ dagger(g))),
                      p.eta0, p.eta1, gu_involution=u)


@PROFILE
@given(seed=seeds, d=st.integers(2, 5), kind=st.sampled_from(["first_class", "gu4"]))
def test_solve_is_invariant_under_a_change_of_basis(seed, d, kind):
    rng = np.random.default_rng(seed)
    p = random_gu4_problem(rng) if kind == "gu4" else first_class_instance(rng, d)
    # away from the regime boundary, where a rounding can flip the branch:
    # the lowest eigenvalue of rho0 - F0 on the support of rho0
    assume(abs(np.linalg.eigvalsh(fidelity_operators(p).rank_operators)[0, 0]) > 1e-6)
    g, _ = np.linalg.qr(rng.standard_normal((p.dim, p.dim))
                        + 1j * rng.standard_normal((p.dim, p.dim)))
    before, after = solve(p), solve(_rotated(p, g))
    assert before.branch is after.branch
    assert before.branch is not Branch.ORACLE_ONLY
    assert abs(before.q_opt - after.q_opt) <= 1e-10
