"""Property tests of the interior-point oracle.

Each example draws a numpy seed and builds its problem from the shared
generators, so the examples are reproducible; the profile is
derandomized, so every run checks the same ones.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import first_class_instance, random_gu4_problem, rank_failing_problem
from usdisc import (
    Branch,
    DensityMatrix,
    UsdProblem,
    failure_lower_bound,
    oracle_optimize,
    solve,
    verify_certificate,
)

PROFILE = settings(derandomize=True, deadline=None, max_examples=60, database=None)
seeds = st.integers(0, 2**32 - 1)


@PROFILE
@given(seed=seeds, d=st.integers(2, 6))
def test_oracle_certifies_rank_failing_pairs(seed, d):
    p = rank_failing_problem(np.random.default_rng(seed), d)
    res = oracle_optimize(p)
    assert res.converged, res.stop
    rep = verify_certificate(p, res.povm, res.certificate)
    assert rep.ok, rep.failures
    assert res.q_opt >= failure_lower_bound(p) - 1e-9


@PROFILE
@given(seed=seeds, d=st.integers(2, 6), projective=st.booleans())
def test_oracle_brackets_the_analytic_optimum(seed, d, projective):
    rng = np.random.default_rng(seed)
    p = random_gu4_problem(rng) if projective else first_class_instance(rng, d)
    rep = solve(p)
    assume(rep.branch != Branch.ORACLE_ONLY)
    res = oracle_optimize(p)
    # weak duality with both iterates feasible: q* <= q_oracle <= q* + gap
    assert 0.0 <= res.q_opt - rep.q_opt <= res.duality_gap + 1e-12


@PROFILE
@given(seed=seeds, d=st.integers(2, 6))
def test_oracle_optimum_is_basis_independent(seed, d):
    rng = np.random.default_rng(seed)
    p = rank_failing_problem(rng, d)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    u, _ = np.linalg.qr(g)

    def rotated(rho):
        return DensityMatrix.from_matrix(u @ rho.matrix @ u.conj().T)

    q = oracle_optimize(p).q_opt
    q_rot = oracle_optimize(UsdProblem(rotated(p.rho0), rotated(p.rho1), p.eta0, p.eta1)).q_opt
    assert abs(q_rot - q) <= 1e-10
