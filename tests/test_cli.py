import argparse
import json
import os
import pathlib
import stat

import numpy as np
import pytest

from conftest import first_class_instance
from usdisc import (DensityMatrix, UsdProblem, cli, failure_probability, oracle_optimize,
                    rank_condition_check, serialize)
from usdisc.bb84 import bit_problem, find_mu0
from usdisc.cli import main
from usdisc.errors import BranchNotApplicable, NumericalFailure
from usdisc.linalg import PSD_TOL
from usdisc.problem import validate_problem
from usdisc.solvers import Branch, solve, solve_first_class


def write_problem(path, p):
    path.write_text(serialize.dumps(serialize.problem_to_obj(p)))


def test_solve_projective_branch(tmp_path):
    inp = tmp_path / "problem.json"
    out = tmp_path / "report.json"
    write_problem(inp, bit_problem(0.3))
    code = main(["solve", "--input", str(inp), "--output", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["branch"] == "GuProjective"
    assert obj["certificate"] is not None


def _bare_bit_pair():
    # rank conditions violated and no involution declared: only the oracle applies
    p = bit_problem(0.3)
    return UsdProblem(p.rho0, p.rho1, 0.5, 0.5)


def _degenerate_pair():
    # each state is maximally mixed on its support, so each spectrum is
    # (1/2, 1/2, 0, 0) and the eigenvectors inside each eigenspace are
    # whatever the eigensolver picks
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    rho1 = q[:, :2] @ q[:, :2].conj().T / 2.0
    return UsdProblem(DensityMatrix.from_matrix(np.diag([0.5, 0.5, 0.0, 0.0])),
                      DensityMatrix.from_matrix(rho1), 0.5, 0.5)


def test_solve_is_byte_identical_across_runs(tmp_path):
    cases = (
        ("first_class", first_class_instance(np.random.default_rng(0), 4), "FirstClassFidelity"),
        ("projective", bit_problem(0.55), "GuProjective"),
        ("oracle", _bare_bit_pair(), "OracleOnly"),
        ("degenerate", _degenerate_pair(), "FirstClassFidelity"),
    )
    for name, p, branch in cases:
        inp = tmp_path / f"{name}.json"
        write_problem(inp, p)
        outs = [tmp_path / f"{name}_{run}.out.json" for run in (1, 2)]
        for out in outs:
            assert main(["solve", "--input", str(inp), "--output", str(out)]) == 0, name
        assert outs[0].read_bytes() == outs[1].read_bytes(), name
        assert json.loads(outs[0].read_text())["branch"] == branch, name


def test_solve_first_class_branch(tmp_path):
    rng = np.random.default_rng(0)
    p = first_class_instance(rng, 4)
    inp = tmp_path / "problem.json"
    out = tmp_path / "report.json"
    write_problem(inp, p)
    assert main(["solve", "--input", str(inp), "--output", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["branch"] == "FirstClassFidelity"


def test_solve_falls_back_to_oracle(tmp_path):
    # no involution and rank conditions violated: only the oracle applies
    import usdisc

    p = bit_problem(0.3)
    bare = usdisc.UsdProblem(p.rho0, p.rho1, 0.5, 0.5)
    inp = tmp_path / "problem.json"
    out = tmp_path / "report.json"
    write_problem(inp, bare)
    code = main(["solve", "--input", str(inp), "--output", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["branch"] == "OracleOnly"
    # the oracle lands on the same optimum the symmetric solver proves
    rep = solve(p)
    assert rep.branch is Branch.GU_PROJECTIVE
    assert abs(obj["q_opt"] - rep.q_opt) <= 1e-5
    assert obj["q_opt"] - rep.q_opt <= obj["diagnostics"]["oracle_duality_gap"] + 1e-12
    assert obj["diagnostics"]["oracle_converged"] == 1.0
    assert main(["certify", "--input", str(out)]) == 0


def test_solve_falls_back_when_projective_certificate_fails(tmp_path, monkeypatch):
    # an analytic branch that cannot certify itself hands over to the
    # oracle, whose own dual still certifies
    import usdisc.certificates
    import usdisc.solvers

    def no_witness(p, x, u):
        return np.zeros((p.dim, p.dim), dtype=complex)

    # both where the projective step names it and in fit_certificate's chain
    monkeypatch.setattr(usdisc.solvers, "symmetric_projective_witness", no_witness)
    monkeypatch.setattr(usdisc.certificates, "symmetric_projective_witness", no_witness)
    inp = tmp_path / "problem.json"
    out = tmp_path / "report.json"
    write_problem(inp, bit_problem(0.3))
    assert main(["solve", "--input", str(inp), "--output", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["branch"] == "OracleOnly"
    assert "certificate" in obj


def _near_threshold_involution_pair():
    # the bit pair just below mu0, with rho1 moved by at most 4e-10 inside
    # its own support. For the fifth draw, op0 passes its rank condition
    # and op1 fails its own
    base = bit_problem(find_mu0() - 2.7e-9)
    proj = base.rho1.support.support_projector
    rng = np.random.default_rng(0)
    for _ in range(5):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    bend = proj @ (g + g.conj().T) @ proj
    bend -= np.trace(bend).real * proj / np.trace(proj).real
    bend *= 4e-10 / np.abs(bend).max()
    return UsdProblem(base.rho0, DensityMatrix.from_matrix(base.rho1.matrix + bend),
                      base.eta0, base.eta1, base.gu_involution)


def test_solve_takes_the_projective_branch_when_one_symmetric_rank_condition_fails(
        tmp_path, capsys, monkeypatch):
    import usdisc.solvers

    p = _near_threshold_involution_pair()
    assert validate_problem(p).ok
    # the operators' spectra are at most 1 in norm, so PSD_TOL is each one's bound
    rc = rank_condition_check(p)
    assert rc.op0_min_eig >= -PSD_TOL > rc.op1_min_eig and not rc.both_psd
    with pytest.raises(BranchNotApplicable) as err:
        solve_first_class(p)
    assert err.value.cause == "rank_conditions"
    inp = tmp_path / "problem.json"
    out = tmp_path / "report.json"
    write_problem(inp, p)
    calls = []
    first_class = usdisc.solvers._construct_first_class

    def counted(*args, **kwargs):
        calls.append(None)
        return first_class(*args, **kwargs)

    # wherever the router reaches it
    monkeypatch.setattr(usdisc.solvers, "_construct_first_class", counted)
    assert main(["solve", "--input", str(inp), "--output", str(out)]) == 0
    # the router reads the same verdict as the first-class construction
    assert calls == []
    obj = json.loads(out.read_text())
    assert obj["branch"] == "GuProjective"
    assert abs(obj["q_opt"] - 0.487084) <= 1e-6
    assert main(["certify", "--input", str(out)]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")
    # the oracle lands no lower than the projective optimum, up to its gap
    result = oracle_optimize(p)
    assert 0.0 <= failure_probability(p, result.povm)[0] - obj["q_opt"] \
        <= result.duality_gap + 1e-12


def test_solve_today_refuses_a_rank_2_pair_under_a_signature_3_1_involution(tmp_path, capsys):
    # the 3D +1 eigenspace of U meets every 2D support, and U fixes that
    # meet, so the supports overlap; this pins today's refusal, which an
    # exact reduction of the supports' intersection would lift
    u = np.diag([1.0, 1.0, 1.0, -1.0])
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    rho0 = x @ x.conj().T
    rho0 /= np.trace(rho0).real
    p = UsdProblem(DensityMatrix.from_matrix(rho0), DensityMatrix.from_matrix(u @ rho0 @ u),
                   0.5, 0.5, u)
    assert validate_problem(p).ok and p.supports_overlap
    inp = tmp_path / "problem.json"
    write_problem(inp, p)
    assert main(["solve", "--input", str(inp)]) == 1
    assert capsys.readouterr().err == "error: state supports overlap\n"


def test_solve_numerical_failure_exits_two(tmp_path, capsys, monkeypatch):
    import usdisc.solvers

    def failing(p):
        raise NumericalFailure("injected eigensolver failure")

    # the rank conditions fail and no involution is declared, so the
    # router reaches the oracle
    monkeypatch.setattr(usdisc.solvers, "oracle_optimize", failing)
    inp = tmp_path / "problem.json"
    write_problem(inp, _bare_bit_pair())
    assert main(["solve", "--input", str(inp)]) == 2
    assert capsys.readouterr().err.startswith("numerical failure")


def test_solve_rejects_a_state_the_square_root_rejects(tmp_path, capsys):
    # -8e-10 is above -PSD_TOL but below -PSD_TOL times the top
    # eigenvalue, the bound DensityMatrix.factor applies
    rho0 = DensityMatrix.from_matrix(np.diag([-8e-10, 0.0, 0.4, 0.6 + 8e-10]))
    rho1 = DensityMatrix.from_matrix(np.diag([0.5, 0.5, 0.0, 0.0]))
    inp = tmp_path / "problem.json"
    write_problem(inp, UsdProblem(rho0, rho1, 0.5, 0.5))
    assert main(["solve", "--input", str(inp)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "rho0_psd" in err


@pytest.mark.parametrize("argv", [
    ["solve", "--tol-psd", "1e-3"],
    ["certify", "--tol-rank", "1e-8"],
    ["oracle", "--tol-psd", "1e-3"],
], ids=["solve", "certify", "oracle"])
def test_tolerance_flags_are_usage_errors(tmp_path, capsys, argv):
    inp = tmp_path / "problem.json"
    write_problem(inp, bit_problem(0.3))
    assert main([*argv, "--input", str(inp)]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys, monkeypatch):
    inp = tmp_path / "problem.json"
    rpt = tmp_path / "report.json"
    write_problem(inp, bit_problem(0.3))
    assert main(["bb84-mu0"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["solve", "--no-such-flag"]) == 1
    assert main(["--help"]) == 0
    assert main(["solve", "--input", str(inp), "--output", str(rpt)]) == 0
    assert main(["certify", "--input", str(rpt)]) == 0
    assert main(["bb84-mu0"]) == 0
    capsys.readouterr()
    assert built == []
    assert cli._build_parser() is cli._build_parser()
    args = cli._build_parser().parse_args(["solve", "--input", str(inp)])
    assert not args.renormalize and args.output is None


def test_certify_round_trip(tmp_path, capsys):
    inp = tmp_path / "problem.json"
    rpt = tmp_path / "report.json"
    write_problem(inp, bit_problem(0.3))
    assert main(["solve", "--input", str(inp), "--output", str(rpt)]) == 0
    code = main(["certify", "--input", str(rpt)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip().endswith("PASS")
    assert "trace_identity" in captured.out


def test_certify_rejects_tampered_witness(tmp_path, capsys):
    inp = tmp_path / "problem.json"
    rpt = tmp_path / "report.json"
    write_problem(inp, bit_problem(0.3))
    assert main(["solve", "--input", str(inp), "--output", str(rpt)]) == 0
    obj = json.loads(rpt.read_text())
    dim = obj["problem"]["dim"]
    obj["certificate"]["z"] = {
        "re": [[0.0] * dim for _ in range(dim)],
        "im": [[0.0] * dim for _ in range(dim)],
    }
    rpt.write_text(serialize.dumps(obj))
    code = main(["certify", "--input", str(rpt)])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.out


def _certify_tampered(tmp_path, capsys, tamper, problem=None):
    """Solve the problem (by default the projective bit pair), alter the
    report, certify it; returns the exit code and the verdict line."""
    inp = tmp_path / "problem.json"
    rpt = tmp_path / "report.json"
    write_problem(inp, bit_problem(0.3) if problem is None else problem)
    assert main(["solve", "--input", str(inp), "--output", str(rpt)]) == 0
    obj = json.loads(rpt.read_text())
    tamper(obj)
    rpt.write_text(serialize.dumps(obj))
    code = main(["certify", "--input", str(rpt)])
    return code, capsys.readouterr().out.strip().splitlines()[-1]


def _matrix(obj):
    return np.array(obj["re"]) + 1j * np.array(obj["im"])


def _scaled(section, name, factor):
    def scale(obj):
        obj[section][name] = serialize.matrix_to_obj(factor * _matrix(obj[section][name]))
    return scale


def _shifted(name, step):
    def shift(obj):
        obj[name] += step
    return shift


def _rotated(name):
    # rho -> G rho G^T for a rotation G by 1e-3 in the plane of the first
    # two basis vectors: still a unit-trace state, no longer the solved one
    def rotate(obj):
        g = np.eye(obj["problem"]["dim"])
        g[:2, :2] = [[np.cos(1e-3), -np.sin(1e-3)], [np.sin(1e-3), np.cos(1e-3)]]
        rho = _matrix(obj["problem"][name])
        obj["problem"][name] = serialize.matrix_to_obj(g @ rho @ g.T)
    return rotate


def _set(path, value):
    def put(obj):
        owner = obj
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
    return put


# one tamper of every number a report stores, and the check it fails
TAMPERS = {
    "q_opt": (lambda obj: obj.update(q_opt=0.5 * obj["q_opt"]), "q_opt_stored"),
    "q0": (_shifted("q0", 1e-6), "q0_stored"),
    "q1": (_shifted("q1", 1e-6), "q1_stored"),
    "e0": (_scaled("povm", "e0", 1.0 - 1e-6), "completeness"),
    "e1": (_scaled("povm", "e1", 1.0 - 1e-6), "completeness"),
    "eq": (_scaled("povm", "eq", 1.0 - 1e-6), "completeness"),
    "z": (_scaled("certificate", "z", 1.0 + 1e-5), "trace_identity"),
    # finite entries whose products in the checks overflow
    "z_overflow": (_scaled("certificate", "z", 1e200), "z_annihilates_eq"),
    "e0_overflow": (_scaled("povm", "e0", 1e80), "branch_label"),
    "eq_overflow": (_scaled("povm", "eq", 1e80), "branch_label"),
    "success_trace": (lambda obj: obj["certificate"].update(
        success_trace=obj["certificate"]["success_trace"] + 1e-9), "success_trace_consistency"),
    "eta0": (_set(("problem", "eta0"), 0.5 + 1e-6), "priors_sum"),
    "eta1": (_set(("problem", "eta1"), 0.5 - 1e-6), "priors_sum"),
    "rho0": (_rotated("rho0"), "error_free_1"),
    "rho1": (_rotated("rho1"), "error_free_0"),
    "u": (_set(("problem", "u"), serialize.matrix_to_obj(np.eye(4))), "branch_label"),
    "branch": (_set(("branch",), "FirstClassFidelity"), "branch_label"),
}


@pytest.mark.parametrize("tamper, failure", list(TAMPERS.values()), ids=list(TAMPERS))
def test_certify_rejects_a_tampered_number(tmp_path, capsys, tamper, failure):
    code, verdict = _certify_tampered(tmp_path, capsys, tamper)
    assert code == 1
    assert verdict.startswith("FAIL") and failure in verdict.split(": ", 1)[1].split(", ")


def test_certify_rejects_tampered_measurement(tmp_path, capsys):
    def negate_e0(obj):
        obj["povm"]["e0"] = serialize.matrix_to_obj(-_matrix(obj["povm"]["e0"]))

    code, verdict = _certify_tampered(tmp_path, capsys, negate_e0)
    assert code == 1
    assert verdict.startswith("FAIL") and "e0_psd" in verdict


def test_certify_rejects_report_without_witness(tmp_path, capsys):
    code, verdict = _certify_tampered(tmp_path, capsys, lambda obj: obj.pop("certificate"))
    assert code == 1
    assert verdict.startswith("FAIL") and "certificate_missing" in verdict


@pytest.mark.parametrize("path", [
    ("certificate", "z", "re"),
    ("povm", "e0", "re"),
    ("povm", "e0", "im"),
    ("problem", "dim"),
], ids=["witness_nan", "e0_nan", "e0_imag_nan", "boolean_dim"])
def test_certify_rejects_non_finite_or_boolean_fields(tmp_path, capsys, path):
    inp = tmp_path / "problem.json"
    rpt = tmp_path / "report.json"
    write_problem(inp, bit_problem(0.3))
    assert main(["solve", "--input", str(inp), "--output", str(rpt)]) == 0
    obj = json.loads(rpt.read_text())
    if path[-1] == "dim":
        obj["problem"]["dim"] = True
    else:
        section, element, part = path
        obj[section][element][part][0][0] = float("nan")
    rpt.write_text(serialize.dumps(obj))
    capsys.readouterr()
    # a format error: exit 1 with a message, not a numpy exception
    assert main(["certify", "--input", str(rpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and ("finite" in err or "dim" in err)


def test_certify_rejects_a_report_without_q_opt(tmp_path, capsys):
    inp = tmp_path / "problem.json"
    rpt = tmp_path / "report.json"
    write_problem(inp, bit_problem(0.3))
    assert main(["solve", "--input", str(inp), "--output", str(rpt)]) == 0
    obj = json.loads(rpt.read_text())
    del obj["q_opt"]
    rpt.write_text(serialize.dumps(obj))
    capsys.readouterr()
    assert main(["certify", "--input", str(rpt)]) == 1
    assert capsys.readouterr().err == "error: report: missing field 'q_opt'\n"


@pytest.mark.parametrize("field, value", [
    (("q_opt",), "x"),
    (("q_opt",), [1]),
    (("q0",), "x"),
    (("q0",), [1]),
    (("q1",), "x"),
    (("q1",), [1]),
    (("certificate", "residuals"), 5),
    (("certificate", "success_trace"), "x"),
    (("diagnostics",), [1, 2]),
    (("q_opt",), 10**400),
], ids=["q_opt_text", "q_opt_list", "q0_text", "q0_list", "q1_text", "q1_list",
        "residuals_number", "success_trace_text", "diagnostics_list", "q_opt_past_double"])
def test_certify_rejects_non_numeric_scalar_fields(tmp_path, capsys, field, value):
    inp = tmp_path / "problem.json"
    rpt = tmp_path / "report.json"
    write_problem(inp, bit_problem(0.3))
    assert main(["solve", "--input", str(inp), "--output", str(rpt)]) == 0
    obj = json.loads(rpt.read_text())
    owner = obj
    for key in field[:-1]:
        owner = owner[key]
    owner[field[-1]] = value
    rpt.write_text(serialize.dumps(obj))
    capsys.readouterr()
    # a format error naming the field, not a Python exception
    assert main(["certify", "--input", str(rpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field[-1] in err


@pytest.mark.parametrize("problem, edit, field", [
    # a first-class report whose maps claim a negative witness eigenvalue,
    # a fidelity of 7 and a bound gap
    (bit_problem(1.5), {"certificate": {"z_min_eig": -0.5},
                        "diagnostics": {"z_min_eig": -0.5, "fidelity": 7.0, "bound_gap": 0.3}},
     "diagnostics.bound_gap"),
    (bit_problem(1.5), {"certificate": {"z_min_eig": -0.5}}, "certificate.residuals"),
    (_bare_bit_pair(), {"diagnostics": {"fidelity": 7.0}}, "diagnostics.fidelity"),
], ids=["first_class_both_maps", "first_class_residuals", "oracle_extra_key"])
def test_certify_refuses_a_report_that_stores_unchecked_numbers(tmp_path, capsys, problem,
                                                                 edit, field):
    # certify recomputes every residual, so a stored residual map, or a
    # diagnostics key the branch does not write, is a format error naming it
    inp = tmp_path / "problem.json"
    rpt = tmp_path / "report.json"
    write_problem(inp, problem)
    assert main(["solve", "--input", str(inp), "--output", str(rpt)]) == 0
    obj = json.loads(rpt.read_text())
    if "certificate" in edit:
        obj["certificate"]["residuals"] = edit["certificate"]
    obj["diagnostics"].update(edit.get("diagnostics", {}))
    rpt.write_text(serialize.dumps(obj))
    capsys.readouterr()
    assert main(["certify", "--input", str(rpt)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {field}:")


@pytest.mark.parametrize("eta0", [0.0, -0.5, float("inf"), float("nan")],
                         ids=["zero", "negative", "inf", "nan"])
@pytest.mark.parametrize("problem", [
    first_class_instance(np.random.default_rng(0), 4),
    bit_problem(0.3),
], ids=["first_class", "projective"])
def test_certify_fails_priors_out_of_range(tmp_path, capsys, problem, eta0):
    def set_eta0(obj):
        obj["problem"]["eta0"] = eta0

    code, verdict = _certify_tampered(tmp_path, capsys, set_eta0, problem=problem)
    assert code == 1
    assert verdict.startswith("FAIL:") and "eta0_in_open_interval" in verdict


@pytest.mark.parametrize("problem, label, swapped", [
    (bit_problem(0.3), "GuProjective", "FirstClassFidelity"),
    (bit_problem(1.5), "FirstClassFidelity", "GuProjective"),
    (first_class_instance(np.random.default_rng(0), 4), "FirstClassFidelity", "GuProjective"),
], ids=["projective", "symmetric_first_class", "first_class"])
def test_certify_rejects_swapped_branch_label(tmp_path, capsys, problem, label, swapped):
    def keep(obj):
        assert obj["branch"] == label

    def swap(obj):
        obj["branch"] = swapped

    code, verdict = _certify_tampered(tmp_path, capsys, keep, problem=problem)
    assert code == 0 and verdict == "PASS"
    code, verdict = _certify_tampered(tmp_path, capsys, swap, problem=problem)
    assert code == 1
    assert verdict.startswith("FAIL") and "branch_label" in verdict


def test_certify_fails_a_state_off_the_psd_cone(tmp_path, capsys):
    # push rho0 off the PSD cone by 1e-6 along a kernel direction, keeping
    # it Hermitian with unit trace
    def bend_rho0(obj):
        rho0 = _matrix(obj["problem"]["rho0"])
        w, v = np.linalg.eigh(rho0)
        bent = rho0 + 1e-6 * (np.outer(v[:, -1], v[:, -1].conj())
                              - np.outer(v[:, 0], v[:, 0].conj()))
        obj["problem"]["rho0"] = serialize.matrix_to_obj(bent)

    code, verdict = _certify_tampered(tmp_path, capsys, bend_rho0)
    assert code == 1
    assert "rho0_psd" in verdict


def test_oracle_command(tmp_path):
    inp = tmp_path / "problem.json"
    out = tmp_path / "oracle.json"
    write_problem(inp, bit_problem(0.5))
    code = main(["oracle", "--input", str(inp), "--output", str(out)])
    assert code == 0
    import usdisc

    obj = json.loads(out.read_text())
    rep = solve(bit_problem(0.5))
    assert rep.branch is Branch.GU_PROJECTIVE
    assert abs(obj["q_opt"] - rep.q_opt) <= 1e-5


def test_invalid_priors_exit_code(tmp_path, capsys):
    p = bit_problem(0.4)
    obj = serialize.problem_to_obj(p)
    obj["eta0"] = 0.9
    obj["eta1"] = 0.9
    inp = tmp_path / "problem.json"
    inp.write_text(serialize.dumps(obj))
    assert main(["solve", "--input", str(inp)]) == 1
    assert "priors_sum" in capsys.readouterr().err


def test_malformed_json_exit_code(tmp_path, capsys):
    inp = tmp_path / "problem.json"
    inp.write_text("{broken")
    assert main(["solve", "--input", str(inp)]) == 1
    # an integer longer than Python's int parser takes
    inp.write_text('{"dim": 1' + "0" * 5000 + "}")
    capsys.readouterr()
    assert main(["solve", "--input", str(inp)]) == 1
    assert capsys.readouterr().err.startswith("error: invalid JSON")


def test_sweep_into_overflow_exits_one_with_one_error_line(capsys):
    argv = ["bb84-sweep", "--mu-start", "700", "--mu-end", "720", "--mu-step", "10"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: sweep failed at mu=720.0: "
                            "mean photon number 720.0 overflows double precision\n")


def test_missing_file_exit_code(tmp_path):
    assert main(["solve", "--input", str(tmp_path / "absent.json")]) == 1


def _file_error(tmp_path, capsys, argv):
    inp = tmp_path / "problem.json"
    write_problem(inp, bit_problem(0.3))
    code = main([a.format(tmp=tmp_path) for a in argv])
    return code, capsys.readouterr().err


def test_output_in_missing_directory_is_a_write_error(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "r.json"
    code, err = _file_error(tmp_path, capsys, ["solve", "--input", "{tmp}/problem.json",
                                               "--output", str(out)])
    assert code == 1
    assert err == f"error: cannot write {out}: No such file or directory\n"


@pytest.mark.parametrize("argv, verb", [
    (["solve", "--input", "{tmp}"], "read"),
    (["certify", "--input", "{tmp}"], "read"),
    (["solve", "--input", "{tmp}/problem.json", "--output", "{tmp}"], "write"),
    (["bb84-mu0", "--output", "{tmp}"], "write"),
])
def test_directory_path_is_a_file_error(tmp_path, capsys, argv, verb):
    code, err = _file_error(tmp_path, capsys, argv)
    assert code == 1
    assert err == f"error: cannot {verb} {tmp_path}: Is a directory\n"


@pytest.mark.parametrize("command", ["solve", "certify", "oracle"])
def test_non_utf8_input_is_a_read_error(tmp_path, capsys, command):
    inp = tmp_path / "problem.json"
    inp.write_bytes(b'{"dim": "\xff"}')
    assert main([command, "--input", str(inp)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {inp}: not UTF-8")


def _solve_into(tmp_path, p, out):
    inp = tmp_path / "problem.json"
    write_problem(inp, p)
    assert main(["solve", "--input", str(inp), "--output", str(out)]) == 0
    return out.read_bytes()


def test_shorter_rewrite_leaves_no_stale_bytes(tmp_path):
    out = tmp_path / "report.json"
    # the 5-dimensional report is longer than the 4-dimensional one
    long_text = _solve_into(tmp_path, first_class_instance(np.random.default_rng(0), 5), out)
    short = _solve_into(tmp_path, bit_problem(0.3), tmp_path / "fresh.json")
    assert len(short) < len(long_text)
    assert _solve_into(tmp_path, bit_problem(0.3), out) == short
    # a certify verdict over a longer text
    verdict, fresh = tmp_path / "certify.txt", tmp_path / "fresh.txt"
    verdict.write_text("x" * 10_000 + "\n")
    for path in (verdict, fresh):
        assert main(["certify", "--input", str(out), "--output", str(path)]) == 0
    assert verdict.read_bytes() == fresh.read_bytes()
    assert verdict.read_text().endswith("PASS\n")


def test_output_through_a_symlink_updates_the_target(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("old text that is longer than the answer\n" * 4)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert main(["bb84-mu0", "--output", str(link)]) == 0
    assert link.is_symlink()
    assert 0.7188 <= float(target.read_text()) <= 0.7198
    assert target.read_text().count("\n") == 1


def test_output_to_dev_null(tmp_path):
    assert main(["bb84-mu0", "--output", os.devnull]) == 0
    assert _solve_into(tmp_path, bit_problem(0.3), pathlib.Path(os.devnull)) == b""


def test_new_output_file_gets_the_mode_of_open_w(tmp_path):
    reference = tmp_path / "reference.txt"
    out = tmp_path / "mu0.txt"
    # with no umask the mode asked for is the mode given
    umask = os.umask(0)
    try:
        with open(reference, "w"):
            pass
        assert main(["bb84-mu0", "--output", str(out)]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)


def test_unknown_flag_exits_one(capsys):
    assert main(["solve", "--no-such-flag"]) == 1
    capsys.readouterr()


def test_a_usage_error_after_a_command_prints_that_commands_usage(capsys):
    assert main(["solve", "--input", "problem.json", "--no-such-flag"]) == 1
    usage, error = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: usdisc solve [-h] --input INPUT")
    assert error == "error: unrecognized arguments: --no-such-flag"
    assert main(["certify"]) == 1
    assert capsys.readouterr().err.startswith("usage: usdisc certify")
    # no command, or an unknown one, gets the top-level usage
    for argv in ([], ["no-such-command"]):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("usage: usdisc [-h]")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("renormalize", [True, False])
def test_an_overflowing_trace_exits_one_with_one_error_line(tmp_path, capsys, renormalize):
    # the trace of rho0 overflows: refused without a numpy warning
    obj = serialize.problem_to_obj(bit_problem(0.3))
    obj["rho0"] = serialize.matrix_to_obj(np.diag([8e307, 8e307, 8e307, 0.0]))
    inp = tmp_path / "problem.json"
    inp.write_text(json.dumps(obj))
    assert main(["solve", "--input", str(inp), *["--renormalize"] * renormalize]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ")


def test_a_report_stored_indented_still_certifies(tmp_path, capsys):
    inp = tmp_path / "problem.json"
    rpt = tmp_path / "report.json"
    write_problem(inp, bit_problem(0.3))
    assert main(["solve", "--input", str(inp), "--output", str(rpt)]) == 0
    text = rpt.read_text()
    assert text.count("\n") == 1
    rpt.write_text(json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n")
    assert main(["certify", "--input", str(rpt)]) == 0
    assert capsys.readouterr().out.endswith("PASS\n")


def test_mu0_command(capsys):
    assert main(["bb84-mu0"]) == 0
    value = float(capsys.readouterr().out.strip())
    assert 0.7188 <= value <= 0.7198


def test_sweep_command(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["bb84-sweep", "--mu-start", "0.2", "--mu-end", "0.8",
                 "--mu-step", "0.2", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "mu,q_basis,q_bit,branch_bit,min_eig"
    assert len(lines) == 5
    assert lines[1].startswith("0.2,")


@pytest.mark.parametrize("flags", [
    ["--mu-end", "inf"],
    ["--mu-step", "inf"],
    ["--mu-start", "nan"],
    ["--mu-step", "1e-300"],
])
def test_sweep_refuses_a_bad_grid_with_one_error_line(tmp_path, capsys, flags):
    out = tmp_path / "sweep.csv"
    assert main(["bb84-sweep", *flags, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid ") and err.count("\n") == 1, err
    assert not out.exists()


def test_sweep_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["bb84-sweep", "--mu-start", "0.3", "--mu-end", "0.9", "--mu-step", "0.3"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
