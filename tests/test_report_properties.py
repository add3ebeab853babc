"""Property tests of solve reports on every branch: the report JSON round
trip is byte-stable, certify is idempotent on what solve writes, the
projective branch's measurement and witness are involution symmetric,
and the audit rejects every tamper larger than its tolerance.

Each example draws a numpy seed and builds its problem from the shared
generators, so the examples are reproducible; the profile is
derandomized, so every run checks the same ones.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import first_class_instance, random_gu4_problem, rank_failing_problem
from usdisc import (Branch, DensityMatrix, OptimalityCertificate, audit_report,
                    rank_condition_check, solve)
from usdisc.linalg import PSD_TOL, dagger, hermitize, spectral_norm
from usdisc.serialize import dumps, loads, report_from_obj, report_to_obj

PROFILE = settings(derandomize=True, deadline=None, max_examples=60, database=None)
seeds = st.integers(0, 2**32 - 1)


def _projective_pair(rng):
    """A random involution pair drawn until it lies below the regime
    boundary, where the projective construction applies."""
    while True:
        p = random_gu4_problem(rng)
        if not rank_condition_check(p).both_psd:
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


def _rotation(rng, d, angle):
    """exp(i angle H) for a random Hermitian H whose eigenvalues reach
    magnitude 1."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w, v = np.linalg.eigh(hermitize(g))
    return (v * np.exp(1j * angle * w / np.abs(w).max())) @ dagger(v)


# The smallest tamper of each sized class that the audit must reject, and
# the factor up to which drawn sizes exceed it: a stored q_opt shifted,
# Tr Z moved by scaling Z and its stored trace, rho0 rotated (radians).
SIZES = {"q_opt": (1e-9, 1e4), "witness": (1e-6, 1e4), "state": (0.05, 10.0)}


def _tampered(p, report, kind, size, rng):
    """(problem, report) with one part altered, as certify's input could
    be: size and its sign apply to the sized classes."""
    if kind == "q_opt":
        return p, replace(report, q_opt=report.q_opt + size)
    if kind == "witness":
        cert = report.certificate
        scale = 1.0 + size / cert.success_trace
        return p, replace(report, certificate=OptimalityCertificate(
            scale * cert.z, success_trace=scale * cert.success_trace))
    if kind == "e0_negated":
        return p, replace(report, povm=replace(report.povm, e0=-report.povm.e0))
    if kind == "branch":
        swapped = (Branch.GU_PROJECTIVE if report.branch is Branch.FIRST_CLASS_FIDELITY
                   else Branch.FIRST_CLASS_FIDELITY)
        return p, replace(report, branch=swapped)
    w = _rotation(rng, p.dim, abs(size))
    return replace(p, rho0=DensityMatrix.from_matrix(w @ p.rho0.matrix @ dagger(w))), report


TAMPERS = ("q_opt", "witness", "e0_negated", "branch", "state")


@pytest.mark.parametrize("branch", list(PROBLEMS), ids=lambda b: b.value)
@PROFILE
@given(seed=seeds, d=st.integers(2, 6), reach=st.floats(0.0, 1.0), sign=st.sampled_from([-1, 1]))
def test_audit_rejects_every_tamper_above_its_tolerance(branch, seed, d, reach, sign):
    rng = np.random.default_rng(seed)
    p = PROBLEMS[branch](rng, d)
    report = solve(p)
    assert report.branch is branch
    assert audit_report(p, report).ok
    for kind in TAMPERS:
        # negating E0 is a tamper of size lambda_max(E0), and the oracle's
        # one-sided measurements leave E0 at eigensolver noise
        if kind == "e0_negated" and np.linalg.eigvalsh(report.povm.e0)[-1] <= PSD_TOL:
            continue
        low, span = SIZES.get(kind, (0.0, 1.0))
        audit = audit_report(*_tampered(p, report, kind, sign * low * span ** reach, rng))
        assert not audit.ok, kind
