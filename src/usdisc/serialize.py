"""JSON encoding of problems, measurements, certificates and reports.

Matrices travel as paired real arrays "re" and "im". Serialization is
deterministic: keys are sorted and floats use the shortest round-trip
decimal form, so identical inputs give byte-identical documents.
"""

import json
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .certificates import OptimalityCertificate
from .errors import InvalidInput
from .problem import DensityMatrix, Povm, UsdProblem
from .solvers import Branch, SolutionReport


def matrix_to_obj(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


# The types json gives a number; bool is not one of them.
_JSON_NUMBERS = frozenset((int, float))


def matrix_from_obj(obj, dim: int, field: str) -> np.ndarray:
    if not isinstance(obj, dict) or "re" not in obj or "im" not in obj:
        raise InvalidInput(f"{field}: expected an object with 're' and 'im' arrays")
    try:
        re = np.array(obj["re"], dtype=float)
        im = np.array(obj["im"], dtype=float)
    except OverflowError as exc:  # an integer past the largest double
        raise InvalidInput(f"{field}: entries must be finite ({exc})") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{field}: non-numeric entries ({exc})") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise InvalidInput(
            f"{field}: expected shape ({dim}, {dim}), got re {re.shape} and im {im.shape}"
        )
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise InvalidInput(f"{field}: entries must be finite")
    # numpy reads the string "0.5" and the boolean true as numbers; JSON
    # gives every number as an int or a float, and the shapes above make
    # each part a list of rows of scalars
    if not _JSON_NUMBERS.issuperset(map(type, chain(*obj["re"], *obj["im"]))):
        bad = next(v for v in chain(*obj["re"], *obj["im"]) if type(v) not in _JSON_NUMBERS)
        raise InvalidInput(f"{field}: expected numbers, got {bad!r}")
    return re + 1j * im


def _number(value, field: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InvalidInput(f"{field}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer past the largest double
        raise InvalidInput(f"{field}: expected a finite number ({exc})") from exc


def _number_map(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise InvalidInput(f"{field}: expected an object, got {value!r}")
    return {k: _number(v, f"{field}.{k}") for k, v in value.items()}


def problem_to_obj(p: UsdProblem) -> dict:
    obj = {
        "dim": p.dim,
        "eta0": p.eta0,
        "eta1": p.eta1,
        "rho0": matrix_to_obj(p.rho0.matrix),
        "rho1": matrix_to_obj(p.rho1.matrix),
    }
    if p.gu_involution is not None:
        obj["u"] = matrix_to_obj(p.gu_involution)
    return obj


def problem_from_obj(obj, renormalize: bool = False) -> UsdProblem:
    if not isinstance(obj, dict):
        raise InvalidInput("problem document must be an object")
    for key in ("dim", "eta0", "eta1", "rho0", "rho1"):
        if key not in obj:
            raise InvalidInput(f"missing required field '{key}'")
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InvalidInput(f"dim: expected a positive integer, got {dim!r}")
    eta0, eta1 = _number(obj["eta0"], "eta0"), _number(obj["eta1"], "eta1")
    rho0 = matrix_from_obj(obj["rho0"], dim, "rho0")
    rho1 = matrix_from_obj(obj["rho1"], dim, "rho1")
    u = matrix_from_obj(obj["u"], dim, "u") if "u" in obj else None
    return UsdProblem(
        rho0=DensityMatrix.from_matrix(rho0, renormalize=renormalize),
        rho1=DensityMatrix.from_matrix(rho1, renormalize=renormalize),
        eta0=eta0, eta1=eta1,
        gu_involution=u,
    )


def povm_to_obj(m: Povm) -> dict:
    return {
        "e0": matrix_to_obj(m.e0),
        "e1": matrix_to_obj(m.e1),
        "eq": matrix_to_obj(m.eq),
    }


def povm_from_obj(obj, dim: int) -> Povm:
    if not isinstance(obj, dict):
        raise InvalidInput("povm: expected an object")
    for key in ("e0", "e1", "eq"):
        if key not in obj:
            raise InvalidInput(f"povm: missing element '{key}'")
    return Povm(
        e0=matrix_from_obj(obj["e0"], dim, "povm.e0"),
        e1=matrix_from_obj(obj["e1"], dim, "povm.e1"),
        eq=matrix_from_obj(obj["eq"], dim, "povm.eq"),
    )


def certificate_to_obj(c: OptimalityCertificate) -> dict:
    return {
        "z": matrix_to_obj(c.z),
        "residuals": {k: float(v) for k, v in c.residuals.items()},
        "success_trace": c.success_trace,
    }


def certificate_from_obj(obj, dim: int) -> OptimalityCertificate:
    if not isinstance(obj, dict) or "z" not in obj:
        raise InvalidInput("certificate: expected an object with a 'z' matrix")
    z = matrix_from_obj(obj["z"], dim, "certificate.z")
    return OptimalityCertificate(
        z=z,
        residuals=_number_map(obj.get("residuals", {}), "certificate.residuals"),
        success_trace=(_number(obj["success_trace"], "certificate.success_trace")
                       if "success_trace" in obj else float(np.trace(z).real)),
    )


def report_to_obj(p: UsdProblem, report: SolutionReport) -> dict:
    obj = {
        "problem": problem_to_obj(p),
        "q_opt": report.q_opt,
        "q0": report.q0,
        "q1": report.q1,
        "branch": report.branch.value,
        "povm": povm_to_obj(report.povm),
        "diagnostics": {k: float(v) for k, v in report.diagnostics.items()},
    }
    if report.certificate is not None:
        obj["certificate"] = certificate_to_obj(report.certificate)
    return obj


def report_from_obj(obj):
    """Decode a solve report back into (problem, report) for re-checking."""
    if not isinstance(obj, dict) or "problem" not in obj:
        raise InvalidInput("report document must contain a 'problem' object")
    p = problem_from_obj(obj["problem"])
    for key in ("q_opt", "q0", "q1", "branch", "povm"):
        if key not in obj:
            raise InvalidInput(f"report: missing field '{key}'")
    try:
        branch = Branch(obj["branch"])
    except ValueError as exc:
        raise InvalidInput(f"report: unknown branch {obj['branch']!r}") from exc
    cert = None
    if "certificate" in obj:
        cert = certificate_from_obj(obj["certificate"], p.dim)
    report = SolutionReport(
        q_opt=_number(obj["q_opt"], "q_opt"),
        q0=_number(obj["q0"], "q0"),
        q1=_number(obj["q1"], "q1"),
        povm=povm_from_obj(obj["povm"], p.dim),
        branch=branch,
        diagnostics=_number_map(obj.get("diagnostics", {}), "diagnostics"),
        certificate=cert,
    )
    return p, report


def dumps(obj) -> str:
    """Exactly json.dumps(obj, sort_keys=True, indent=2) + "\\n".

    An indent makes json fall back to its pure-Python encoder, so the
    common shapes (string-keyed dicts, lists, str, int, finite float) are
    written here, each matrix row in one join.
    """
    out = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value, newline, out):
    """Append the text of value to out; newline starts a line at its depth."""
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
        return
    elif kind is float:
        text = float.__repr__(value)
        if "n" not in text:
            out.append(text)
            return
    elif kind is int:
        out.append(int.__repr__(value))
        return
    elif kind is list and value:
        inner = newline + "  "
        if type(value[0]) is float:
            try:
                text = ("," + inner).join(map(float.__repr__, value))
            except TypeError:  # not every entry is a float
                pass
            else:
                if "n" not in text:  # no nan or inf
                    out.append("[" + inner + text + newline + "]")
                    return
        else:
            lead = "[" + inner
            for item in value:
                out.append(lead)
                _write(item, inner, out)
                lead = "," + inner
            out.append(newline + "]")
            return
    elif kind is dict and value and all(type(key) is str for key in value):
        inner = newline + "  "
        lead = "{" + inner
        for key in sorted(value):
            out.append(lead)
            out.append(_quote(key))
            out.append(": ")
            _write(value[key], inner, out)
            lead = "," + inner
        out.append(newline + "}")
        return
    # NaN and the infinities, bool, None, empty containers, numpy scalars,
    # float rows holding any of them: json's own text, moved to this depth
    # (json text holds no raw newline but the ones its indent puts in)
    out.append(json.dumps(value, sort_keys=True, indent=2).replace("\n", newline))


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer with more digits than Python converts
        # the limit as Python words it, without its advice to programmers
        raise InvalidInput(f"invalid JSON: {str(exc).partition(';')[0]}") from exc
