"""Property tests of solve reports on every branch: the report JSON round
trip is byte-stable, certify is idempotent on what solve writes, and the
projective branch's measurement and witness are involution symmetric.

Each example draws a numpy seed and builds its problem from the shared
generators, so the examples are reproducible; the profile is
derandomized, so every run checks the same ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import first_class_instance, random_gu4_problem, rank_failing_problem
from usdisc import Branch, audit_report, solve
from usdisc.linalg import spectral_norm
from usdisc.serialize import dumps, loads, report_from_obj, report_to_obj
from usdisc.solvers import gu_4d_regime

PROFILE = settings(derandomize=True, deadline=None, max_examples=60, database=None)
seeds = st.integers(0, 2**32 - 1)


def _projective_pair(rng):
    """A random involution pair drawn until it lies below the regime
    boundary, where the projective construction applies."""
    while True:
        p = random_gu4_problem(rng)
        if not gu_4d_regime(p)[0]:
            return p


# the problem generator of each branch, called with (rng, d)
PROBLEMS = {
    Branch.FIRST_CLASS_FIDELITY: first_class_instance,
    Branch.GU_PROJECTIVE: lambda rng, d: _projective_pair(rng),
    Branch.ORACLE_ONLY: rank_failing_problem,
}


@pytest.mark.parametrize("branch", list(PROBLEMS), ids=lambda b: b.value)
@PROFILE
@given(seed=seeds, d=st.integers(2, 6))
def test_report_round_trip_is_byte_stable_and_certify_idempotent(branch, seed, d):
    p = PROBLEMS[branch](np.random.default_rng(seed), d)
    report = solve(p)
    assert report.branch is branch
    text = dumps(report_to_obj(p, report))
    again = report_from_obj(loads(text))
    assert dumps(report_to_obj(*again)) == text
    first, second = audit_report(p, report), audit_report(*again)
    assert first.ok, first.failures
    assert second.ok, second.failures
    assert list(second.residuals) == list(first.residuals)


@PROFILE
@given(seed=seeds)
def test_projective_measurement_and_witness_are_involution_symmetric(seed):
    p = _projective_pair(np.random.default_rng(seed))
    report = solve(p)
    assert report.branch is Branch.GU_PROJECTIVE
    u, m, z = p.gu_involution, report.povm, report.certificate.z
    assert spectral_norm(u @ m.e0 @ u - m.e1) <= 1e-12
    assert spectral_norm(u @ z @ u - z) <= 1e-12
