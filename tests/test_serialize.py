import numpy as np
import pytest

from conftest import random_problem
from usdisc import serialize
from usdisc import solve_gu_4d, validate_povm
from usdisc.bb84 import bit_problem
from usdisc.errors import InvalidInput
from usdisc.solvers import Branch


def test_problem_round_trip():
    rng = np.random.default_rng(0)
    p = random_problem(rng, 4)
    obj = serialize.problem_to_obj(p)
    back = serialize.problem_from_obj(obj)
    np.testing.assert_allclose(back.rho0.matrix, p.rho0.matrix, atol=1e-15)
    np.testing.assert_allclose(back.rho1.matrix, p.rho1.matrix, atol=1e-15)
    assert back.eta0 == p.eta0
    assert back.gu_involution is None


def test_problem_round_trip_with_involution():
    p = bit_problem(0.4)
    back = serialize.problem_from_obj(serialize.problem_to_obj(p))
    np.testing.assert_allclose(back.gu_involution, p.gu_involution, atol=1e-15)


def test_text_round_trip_is_stable():
    p = bit_problem(0.4)
    text = serialize.dumps(serialize.problem_to_obj(p))
    again = serialize.dumps(serialize.problem_to_obj(serialize.problem_from_obj(serialize.loads(text))))
    assert text == again


def test_report_round_trip_revalidates():
    # a solved report written to text re-validates after reading back
    p = bit_problem(0.3)
    rep, _ = solve_gu_4d(p)
    obj = serialize.report_to_obj(p, rep)
    text = serialize.dumps(obj)
    p2, rep2 = serialize.report_from_obj(serialize.loads(text))
    assert rep2.branch is Branch.GU_PROJECTIVE
    assert rep2.q_opt == pytest.approx(rep.q_opt, abs=1e-15)
    out = validate_povm(p2, rep2.povm)
    assert out.ok, out.failures
    assert rep2.certificate is not None
    np.testing.assert_allclose(rep2.certificate.z, rep.certificate.z, atol=1e-15)


def test_loads_rejects_bad_json():
    with pytest.raises(InvalidInput):
        serialize.loads("{not json")


def test_problem_from_obj_rejects_missing_field():
    p = bit_problem(0.4)
    obj = serialize.problem_to_obj(p)
    del obj["rho1"]
    with pytest.raises(InvalidInput):
        serialize.problem_from_obj(obj)


def test_problem_from_obj_rejects_shape_mismatch():
    p = bit_problem(0.4)
    obj = serialize.problem_to_obj(p)
    obj["dim"] = 3
    with pytest.raises(InvalidInput):
        serialize.problem_from_obj(obj)


def test_problem_from_obj_rejects_boolean_prior():
    p = bit_problem(0.4)
    obj = serialize.problem_to_obj(p)
    obj["eta0"] = True
    with pytest.raises(InvalidInput):
        serialize.problem_from_obj(obj)


def test_problem_from_obj_rejects_boolean_dim():
    # a one-dimensional problem, so that True read as 1 would fit every shape
    one = {"re": [[1.0]], "im": [[0.0]]}
    obj = {"dim": True, "eta0": 0.5, "eta1": 0.5, "rho0": one, "rho1": one}
    with pytest.raises(InvalidInput, match="dim"):
        serialize.problem_from_obj(obj)
    obj["dim"] = 1
    assert serialize.problem_from_obj(obj).dim == 1


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_matrix_from_obj_rejects_non_finite_entries(value):
    for part in ("re", "im"):
        obj = {"re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        obj[part][1][0] = value
        with pytest.raises(InvalidInput, match="finite"):
            serialize.matrix_from_obj(obj, 2, "rho0")


def test_matrix_from_obj_rejects_ragged_rows():
    with pytest.raises(InvalidInput):
        serialize.matrix_from_obj({"re": [[1, 0], [0]], "im": [[0, 0], [0, 0]]}, 2, "rho0")


def test_report_from_obj_rejects_unknown_branch():
    p = bit_problem(0.3)
    rep, _ = solve_gu_4d(p)
    obj = serialize.report_to_obj(p, rep)
    obj["branch"] = "NoSuchBranch"
    with pytest.raises(InvalidInput):
        serialize.report_from_obj(obj)
