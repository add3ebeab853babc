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
from .linalg import trace
from .oracle import MAX_STEPS
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


# The matrix fields of a problem and of a measurement, in decoding order.
_PROBLEM_MATRICES = ("rho0", "rho1", "u")
_POVM_MATRICES = ("e0", "e1", "eq")


def _decoded(sections, dim) -> dict:
    """The named matrices of each (doc, prefix, names) section, keyed by
    prefix + name and decoded in one array conversion with one finiteness
    and one JSON-number check; {} when any fails (see _matrices)."""
    objs = {prefix + n: doc[n] for doc, prefix, names in sections if isinstance(doc, dict)
            for n in names if n in doc}
    try:
        pairs = [(o["re"], o["im"]) for o in objs.values()]
        parts = np.array(pairs, dtype=float)
        rows = [row for pair in pairs for part in pair for row in part]
        if (parts.shape[1:] == (2, dim, dim) and np.isfinite(parts).all()
                and _JSON_NUMBERS.issuperset(map(type, chain.from_iterable(rows)))):
            return dict(zip(objs, parts[:, 0] + 1j * parts[:, 1]))
    except (KeyError, TypeError, ValueError, OverflowError):
        pass
    return {}


def _matrices(decoded, doc, dim, prefix: str, names) -> list:
    """The named matrices of doc in turn, None for one it does not hold:
    from decoded, or else each decoded on its own, which words the error."""
    decoded = decoded or {}
    return [decoded[prefix + n] if prefix + n in decoded
            else matrix_from_obj(doc[n], dim, prefix + n) if n in doc else None for n in names]


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


def _encoded(*sections) -> dict:
    """Each (doc, names) section's named matrices replaced in doc by their
    matrix_to_obj, all in one array conversion; returns the first doc."""
    slots = [(doc, n) for doc, names in sections for n in names if n in doc]
    stack = matrix_to_obj([doc[n] for doc, n in slots])
    for (doc, n), re, im in zip(slots, stack["re"], stack["im"]):
        doc[n] = {"re": re, "im": im}
    return sections[0][0]


def _check_run_record(diagnostics: dict):
    """Refuse an oracle run record that no run writes: a missing key, a
    step count that is not an integer in [0, MAX_STEPS], or a convergence
    flag other than 0 or 1. The audit checks the duality gap."""
    for key in ORACLE_DIAGNOSTICS:
        if key not in diagnostics:
            raise InvalidInput(f"diagnostics.{key}: an OracleOnly report stores it")
    steps, converged = diagnostics["oracle_iterations"], diagnostics["oracle_converged"]
    if not (steps.is_integer() and 0 <= steps <= MAX_STEPS):
        raise InvalidInput(f"diagnostics.oracle_iterations: expected an integer in "
                           f"[0, {MAX_STEPS}], got {steps!r}")
    if converged not in (0.0, 1.0):
        raise InvalidInput(f"diagnostics.oracle_converged: expected 0 or 1, got {converged!r}")


def problem_to_obj(p: UsdProblem) -> dict:
    obj = {"dim": p.dim, "eta0": p.eta0, "eta1": p.eta1,
           "rho0": p.rho0.matrix, "rho1": p.rho1.matrix}
    if p.gu_involution is not None:
        obj["u"] = p.gu_involution
    return _encoded((obj, _PROBLEM_MATRICES))


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
        decoded = _decoded(((obj, "", _PROBLEM_MATRICES),), dim)
    rho0, rho1, u = _matrices(decoded, obj, dim, "", _PROBLEM_MATRICES)
    # both states checked in one stacked call, the first bad one wording the error
    states = DensityMatrix.from_matrix(np.array((rho0, rho1)), renormalize).matrix
    p = UsdProblem(DensityMatrix(states[0]), DensityMatrix(states[1]), eta0, eta1, u)
    # from_matrix refused a skew above HERM_TOL and symmetrized the states,
    # which leaves them exactly Hermitian: their skews are 0
    vars(p)["state_residuals"] = np.zeros(2), abs(trace(states).real - 1.0)
    return p


def povm_to_obj(m: Povm) -> dict:
    return _encoded(({"e0": m.e0, "e1": m.e1, "eq": m.eq}, _POVM_MATRICES))


def povm_from_obj(obj, dim: int, decoded=None) -> Povm:
    if not isinstance(obj, dict):
        raise InvalidInput("povm: expected an object")
    for key in ("e0", "e1", "eq"):
        if key not in obj:
            raise InvalidInput(f"povm: missing element '{key}'")
    return Povm(*_matrices(decoded, obj, dim, "povm.", _POVM_MATRICES))


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
        z=_matrices(decoded, obj, dim, "certificate.", ("z",))[0],
        success_trace=_number(obj["success_trace"], "certificate.success_trace"),
    )


def report_to_obj(p: UsdProblem, report: SolutionReport) -> dict:
    m, cert = report.povm, report.certificate
    obj = {
        "problem": problem_to_obj(p),
        "q_opt": report.q_opt,
        "q0": report.q0,
        "q1": report.q1,
        "branch": report.branch.value,
        "povm": {"e0": m.e0, "e1": m.e1, "eq": m.eq},
        "diagnostics": {k: float(v) for k, v in report.diagnostics.items()},
    }
    if cert is not None:
        obj["certificate"] = {"z": cert.z, "success_trace": cert.success_trace}
    # the measurement and the witness in one array conversion
    _encoded((obj["povm"], _POVM_MATRICES), (obj.get("certificate", {}), ("z",)))
    return obj


def report_from_obj(obj):
    """Decode a solve report back into (problem, report) for re-checking;
    a stored number that its branch does not write is refused."""
    if not isinstance(obj, dict) or "problem" not in obj:
        raise InvalidInput("report document must contain a 'problem' object")
    doc = obj["problem"]
    decoded = _decoded(((doc, "", _PROBLEM_MATRICES), (obj.get("povm"), "povm.", _POVM_MATRICES),
                        (obj.get("certificate"), "certificate.", ("z",))),
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
    if branch is Branch.ORACLE_ONLY:
        _check_run_record(diagnostics)
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
