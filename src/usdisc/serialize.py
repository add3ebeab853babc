"""JSON encoding of problems, measurements, certificates and reports.

Matrices travel as paired real arrays "re" and "im". Serialization is
deterministic: dumps writes one line, json's C encoder with sorted keys
and the shortest round-trip decimal form of every float, so identical
inputs give byte-identical documents. Reading is format-blind: a report
pretty-printed by python -m json.tool, or stored indented, reads the
same. A document's matrices are decoded in one array conversion (see
_decoded); a field is decoded on its own only to word an error.
"""

import json
from itertools import chain

import numpy as np

from .certificates import OptimalityCertificate
from .errors import InvalidInput
from .problem import DensityMatrix, Povm, UsdProblem
from .solvers import ORACLE_DIAGNOSTICS, Branch, SolutionReport


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


def _decoded(objs: dict, dim) -> dict:
    """The matrices objs maps field names to, decoded in one array
    conversion with one finiteness and one JSON-number check; {} when any
    of them fails, so that _matrix decodes each on its own."""
    try:
        parts = np.array([(o["re"], o["im"]) for o in objs.values()], dtype=float)
        entries = chain.from_iterable(chain(*o["re"], *o["im"]) for o in objs.values())
        if (parts.shape[1:] == (2, dim, dim) and np.isfinite(parts).all()
                and _JSON_NUMBERS.issuperset(map(type, entries))):
            return dict(zip(objs, parts[:, 0] + 1j * parts[:, 1]))
    except (KeyError, TypeError, ValueError, OverflowError):
        pass
    return {}


def _fields(doc, prefix: str, names) -> dict:
    """{prefix + name: doc[name]} for the names doc holds, if it is an object."""
    return {prefix + n: doc[n] for n in names if n in doc} if isinstance(doc, dict) else {}


def _matrix(decoded, obj, dim, field: str) -> np.ndarray:
    m = decoded.get(field) if decoded else None
    return matrix_from_obj(obj, dim, field) if m is None else m


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


def problem_from_obj(obj, renormalize: bool = False, decoded=None) -> UsdProblem:
    """The problem a document describes; decoded holds its matrices when a
    caller has decoded them already (see _decoded)."""
    if not isinstance(obj, dict):
        raise InvalidInput("problem document must be an object")
    for key in ("dim", "eta0", "eta1", "rho0", "rho1"):
        if key not in obj:
            raise InvalidInput(f"missing required field '{key}'")
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InvalidInput(f"dim: expected a positive integer, got {dim!r}")
    eta0, eta1 = _number(obj["eta0"], "eta0"), _number(obj["eta1"], "eta1")
    if decoded is None:
        decoded = _decoded(_fields(obj, "", ("rho0", "rho1", "u")), dim)
    rho0, rho1, u = (_matrix(decoded, obj[f], dim, f) if f in obj else None
                     for f in ("rho0", "rho1", "u"))
    # both states checked in one stacked call, the first bad one wording the error
    states = DensityMatrix.from_matrix(np.array((rho0, rho1)), renormalize).matrix
    return UsdProblem(DensityMatrix(states[0]), DensityMatrix(states[1]), eta0, eta1, u)


def povm_to_obj(m: Povm) -> dict:
    return {
        "e0": matrix_to_obj(m.e0),
        "e1": matrix_to_obj(m.e1),
        "eq": matrix_to_obj(m.eq),
    }


def povm_from_obj(obj, dim: int, decoded=None) -> Povm:
    if not isinstance(obj, dict):
        raise InvalidInput("povm: expected an object")
    for key in ("e0", "e1", "eq"):
        if key not in obj:
            raise InvalidInput(f"povm: missing element '{key}'")
    return Povm(*(_matrix(decoded, obj[k], dim, f"povm.{k}") for k in ("e0", "e1", "eq")))


def certificate_to_obj(c: OptimalityCertificate) -> dict:
    return {"z": matrix_to_obj(c.z), "success_trace": c.success_trace}


def certificate_from_obj(obj, dim: int, decoded=None) -> OptimalityCertificate:
    if not isinstance(obj, dict) or "z" not in obj:
        raise InvalidInput("certificate: expected an object with a 'z' matrix")
    if "residuals" in obj:
        # certify recomputes every residual; a stored one would go unchecked
        raise InvalidInput("certificate.residuals: a report stores no residuals")
    if "success_trace" not in obj:
        # certify checks the stored trace against tr Z; one filled in from Z
        # would check nothing
        raise InvalidInput("certificate: missing field 'success_trace'")
    return OptimalityCertificate(
        z=_matrix(decoded, obj["z"], dim, "certificate.z"),
        success_trace=_number(obj["success_trace"], "certificate.success_trace"),
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
    """Decode a solve report back into (problem, report) for re-checking;
    a stored number that its branch does not write is refused."""
    if not isinstance(obj, dict) or "problem" not in obj:
        raise InvalidInput("report document must contain a 'problem' object")
    doc = obj["problem"]
    decoded = _decoded({**_fields(doc, "", ("rho0", "rho1", "u")),
                        **_fields(obj.get("povm"), "povm.", ("e0", "e1", "eq")),
                        **_fields(obj.get("certificate"), "certificate.", ("z",))},
                       doc.get("dim") if isinstance(doc, dict) else None)
    p = problem_from_obj(doc, decoded=decoded)
    for key in ("q_opt", "q0", "q1", "branch", "povm"):
        if key not in obj:
            raise InvalidInput(f"report: missing field '{key}'")
    try:
        branch = Branch(obj["branch"])
    except ValueError as exc:
        raise InvalidInput(f"report: unknown branch {obj['branch']!r}") from exc
    diagnostics = _number_map(obj.get("diagnostics", {}), "diagnostics")
    allowed = ORACLE_DIAGNOSTICS if branch is Branch.ORACLE_ONLY else ()
    extra = sorted(set(diagnostics).difference(allowed))
    if extra:
        raise InvalidInput(f"diagnostics.{extra[0]}: a {branch.value} report does not store it")
    cert = None
    if "certificate" in obj:
        cert = certificate_from_obj(obj["certificate"], p.dim, decoded)
    report = SolutionReport(
        q_opt=_number(obj["q_opt"], "q_opt"),
        q0=_number(obj["q0"], "q0"),
        q1=_number(obj["q1"], "q1"),
        povm=povm_from_obj(obj["povm"], p.dim, decoded),
        branch=branch,
        diagnostics=diagnostics,
        certificate=cert,
    )
    return p, report


def dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True) + "\\n": one line from json's C encoder."""
    return json.dumps(obj, sort_keys=True) + "\n"


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
