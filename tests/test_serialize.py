import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import first_class_instance, random_problem
from usdisc import DensityMatrix, UsdProblem, cli, serialize
from usdisc import solve, validate_povm
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
    rep = solve(p)
    assert rep.branch is Branch.GU_PROJECTIVE
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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                   pytest.param(10**400, id="int_past_double")])
def test_matrix_from_obj_rejects_non_finite_entries(value):
    for part in ("re", "im"):
        obj = {"re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        obj[part][1][0] = value
        with pytest.raises(InvalidInput, match="finite"):
            serialize.matrix_from_obj(obj, 2, "rho0")


@pytest.mark.parametrize("value", ["0.5", "1", True, False])
def test_matrix_from_obj_rejects_entries_that_are_not_json_numbers(value):
    # numpy would read each of these as a number
    for part in ("re", "im"):
        obj = {"re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        obj[part][1][0] = value
        with pytest.raises(InvalidInput, match="expected numbers"):
            serialize.matrix_from_obj(obj, 2, "rho0")
    # integers are JSON numbers
    ints = serialize.matrix_from_obj({"re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}, 2, "rho0")
    assert np.array_equal(ints, np.diag([1.0, 0.0]))


def test_solve_refuses_a_problem_file_with_quoted_matrix_entries(tmp_path, capsys):
    obj = serialize.problem_to_obj(bit_problem(0.3))
    obj["rho0"]["re"][0][0] = str(obj["rho0"]["re"][0][0])
    obj["rho1"]["im"][1][1] = True
    inp = tmp_path / "problem.json"
    inp.write_text(json.dumps(obj))
    assert cli.main(["solve", "--input", str(inp)]) == 1
    assert capsys.readouterr().err.startswith("error: rho0: expected numbers")


@pytest.mark.parametrize("renormalize", [False, True])
def test_the_states_are_checked_as_one_stack_with_each_states_error(renormalize):
    obj = serialize.problem_to_obj(bit_problem(0.3))
    p = serialize.problem_from_obj(obj, renormalize=renormalize)
    for name in ("rho0", "rho1"):
        alone = DensityMatrix.from_matrix(serialize.matrix_from_obj(obj[name], 4, name),
                                          renormalize=renormalize)
        assert np.array_equal(getattr(p, name).matrix, alone.matrix)
    # the error is the first bad state's, although the stack's worst trace is rho1's
    obj["rho1"] = serialize.matrix_to_obj(np.diag([2.0, 0.0, 0.0, 0.0]))
    with pytest.raises(InvalidInput, match="trace 2.0 "):
        serialize.problem_from_obj(obj)
    obj["rho0"] = serialize.matrix_to_obj(np.diag([1.25, 0.0, 0.0, 0.0]))
    with pytest.raises(InvalidInput, match="trace 1.25 "):
        serialize.problem_from_obj(obj)


def test_matrix_from_obj_rejects_ragged_rows():
    with pytest.raises(InvalidInput):
        serialize.matrix_from_obj({"re": [[1, 0], [0]], "im": [[0, 0], [0, 0]]}, 2, "rho0")


def test_report_from_obj_rejects_unknown_branch():
    p = bit_problem(0.3)
    rep = solve(p)
    assert rep.branch is Branch.GU_PROJECTIVE
    obj = serialize.report_to_obj(p, rep)
    obj["branch"] = "NoSuchBranch"
    with pytest.raises(InvalidInput):
        serialize.report_from_obj(obj)


def _reference(obj):
    return json.dumps(obj, sort_keys=True) + "\n"


def _indented(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_floats = st.floats() | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0, 1e-300, 1e22])
_leaves = (st.none() | st.booleans() | st.integers() | _floats | st.text(max_size=6)
           | st.lists(st.lists(_floats, max_size=4), max_size=4))
_trees = st.recursive(
    _leaves,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=20,
)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(_trees)
def test_dumps_matches_json_on_generated_trees(obj):
    assert serialize.dumps(obj) == _reference(obj)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(_trees)
def test_a_reindented_document_is_the_indented_text(obj):
    # the text an indent=2 writer gives, which reports used to be stored in
    assert _indented(json.loads(serialize.dumps(obj))) == _indented(obj)


@settings(derandomize=True, deadline=None, max_examples=30, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]), st.booleans())
def test_a_reindented_report_is_the_indented_text(seed, dim, first_class):
    rng = np.random.default_rng(seed)
    p = first_class_instance(rng, dim) if first_class else random_problem(rng, dim)
    obj = serialize.report_to_obj(p, solve(p))
    text = serialize.dumps(obj)
    assert text.count("\n") == 1
    assert _indented(json.loads(text)) == _indented(obj)


def test_dumps_matches_json_on_edge_values():
    rows = [[float("nan"), 1.0], [-0.0, 1e-300], [1e22, -float("inf")], []]
    obj = {"\u00e9\u03c1\U0001d4ac": rows, "b": [[1.0, 2.5], [3.0, 4.0]], "e": {}, "l": [],
           "s": [True, None, 3, -7, "\n\"\\"], "x": {"z": [{}, [[]]]},
           "np": [np.float64(0.1), np.float64(np.nan)], "nan": float("nan")}
    assert serialize.dumps(obj) == _reference(obj)
    for value in (1.5, -float("inf"), True, None, "\u00e9", 0, [], {}, [[]], [1.0, "a"],
                  {"k": {2: [[1.0]], 1.5: None}}):
        assert serialize.dumps(value) == _reference(value)


def _bare_bit_pair():
    p = bit_problem(0.3)
    return UsdProblem(p.rho0, p.rho1, 0.5, 0.5)


@pytest.mark.parametrize("problem, branch", [
    (first_class_instance(np.random.default_rng(0), 4), Branch.FIRST_CLASS_FIDELITY),
    (bit_problem(0.3), Branch.GU_PROJECTIVE),
    (_bare_bit_pair(), Branch.ORACLE_ONLY),
])
def test_dumps_matches_json_on_reports(problem, branch):
    report = solve(problem)
    assert report.branch is branch
    obj = serialize.report_to_obj(problem, report)
    assert serialize.dumps(obj) == _reference(obj)


def test_dumps_matches_json_on_the_oracle_command_object(tmp_path, monkeypatch):
    seen = []
    dumps = serialize.dumps

    def spy(obj):
        seen.append(obj)
        return dumps(obj)

    monkeypatch.setattr(serialize, "dumps", spy)
    inp = tmp_path / "problem.json"
    inp.write_text(dumps(serialize.problem_to_obj(_bare_bit_pair())))
    assert cli.main(["oracle", "--input", str(inp), "--output", str(tmp_path / "out.json")]) == 0
    (obj,) = seen
    assert {"converged", "stop", "povm"} <= obj.keys()
    assert dumps(obj) == _reference(obj)


_REPORT_FIELDS = {"rho0": ("problem", "rho0"), "rho1": ("problem", "rho1"), "u": ("problem", "u"),
                  "povm.e0": ("povm", "e0"), "povm.e1": ("povm", "e1"),
                  "povm.eq": ("povm", "eq"), "certificate.z": ("certificate", "z")}


def _spoil(m, case):
    """Spoil a matrix object in place; returns the start of the error
    message after the field name."""
    if case == "non_finite":
        m["re"][1][0] = float("nan")
        return "entries must be finite"
    if case == "string":
        m["re"][0][0] = "0.5"
        return "expected numbers, got '0.5'"
    if case == "boolean":
        m["im"][1][1] = True
        return "expected numbers, got True"
    if case == "shape":
        for part in ("re", "im"):
            m[part] = [row[:-1] for row in m[part][:-1]]
        return "expected shape (4, 4), got re (3, 3) and im (3, 3)"
    if case == "ragged":
        m["re"][1].pop()
        return "non-numeric entries ("
    del m[case.removeprefix("missing_")]
    return "expected an object with 're' and 'im' arrays"


_SPOILS = ["non_finite", "string", "boolean", "shape", "ragged", "missing_re", "missing_im"]


@pytest.mark.parametrize("case", _SPOILS)
@pytest.mark.parametrize("field", list(_REPORT_FIELDS))
def test_a_bad_matrix_is_refused_naming_its_field(field, case):
    # every other matrix of the report is sound, so only the spoiled one can be named
    p = bit_problem(0.3)
    obj = json.loads(serialize.dumps(serialize.report_to_obj(p, solve(p))))
    doc, key = _REPORT_FIELDS[field]
    message = f"{field}: " + _spoil(obj[doc][key], case)
    with pytest.raises(InvalidInput) as exc:
        serialize.report_from_obj(obj)
    assert str(exc.value).startswith(message)
    if doc == "problem":
        with pytest.raises(InvalidInput) as exc:
            serialize.problem_from_obj(obj["problem"])
        assert str(exc.value).startswith(message)
