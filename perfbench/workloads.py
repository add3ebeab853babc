"""The three closed-loop workloads: one client, next request only after
the previous one returned.

Every request goes through `usdisc.cli.main` in process. Latencies cover
the CLI calls alone; reading reports back and checking them against the
numpy reference happens outside the timed region.
"""

import contextlib
import io
import json
import math
import os
from collections import Counter
from time import perf_counter

import numpy as np

import inputs

WORKLOADS = ("solve-certify", "bb84-sweep", "oracle-fallback")

# Requests in solve-certify that are followed by one tampered certify,
# and the tamper classes they cycle through.
TAMPER_EVERY = 5
TAMPER_CLASSES = ("q_opt", "e0_negated", "witness", "state", "branch")

# Distinct problem files per run; requests cycle through them. The
# program keeps no cache, so a repeat costs what a first visit does.
SOLVE_CERTIFY_POOL = 1000
FALLBACK_POOL = 300
FLOOR_TOL = 1e-8


class Tally:
    """Latencies and check outcomes of one workload's requests."""

    def __init__(self):
        self.request_ms = []
        self.solve_ms = []
        self.certify_ms = []
        self.failures = Counter()
        self.failed = 0
        self.branches = Counter()
        self.uncertified = 0
        self.tampered = Counter()
        self.tamper_caught = Counter()
        self.oracle_iterations = []
        self.oracle_converged = []

    @property
    def attempted(self):
        return len(self.request_ms)

    def record(self, problems):
        """Count a request as failed when any check found a problem."""
        if problems:
            self.failed += 1
            self.failures.update(problems)


class Workload:
    """Inputs of one workload, laid out as files under `workdir`, and the
    request that exercises them."""

    def __init__(self, name, seed, workdir):
        self.name = name
        self.cli = None  # bound by the caller once usdisc is imported
        self.report = os.path.join(workdir, "report.json")
        self.verdict = os.path.join(workdir, "certify.txt")
        self.tampered = os.path.join(workdir, "tampered.json")
        self.tamper_rng = np.random.default_rng([seed, 5])
        digest = inputs.Digest()
        if name == "solve-certify":
            stream = inputs.solve_certify_cases(seed, SOLVE_CERTIFY_POOL)
        elif name == "oracle-fallback":
            stream = inputs.fallback_cases(seed, FALLBACK_POOL)
        else:
            start, end, step = inputs.BB84_GRID
            digest.add(f"bb84-sweep {start} {end} {step}")
            stream = ()
        # Texts go to their files and into the digest, then are dropped,
        # so the peak resident set holds little of the benchmark's own.
        self.cases = []
        self.paths = []
        for i, (text, case) in enumerate(stream):
            digest.add(text)
            path = os.path.join(workdir, f"problem-{i:04d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.cases.append(case)
            self.paths.append(path)
        self.digest = digest.hex()

    def run(self, index, tally, tamper=True):
        """Issue request number `index` and record it in `tally`."""
        if self.name == "bb84-sweep":
            self._sweep(tally)
        else:
            i = index % len(self.cases)
            self._solve_certify(self.cases[i], self.paths[i], tally)
            if tamper and self.name == "solve-certify" and index % TAMPER_EVERY == TAMPER_EVERY - 1:
                self._tamper(tally, index // TAMPER_EVERY)

    def _solve_certify(self, case, path, tally):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            t0 = perf_counter()
            rc_solve = self.cli.main(["solve", "--input", path, "--output", self.report])
            t1 = perf_counter()
            rc_cert = None
            if rc_solve == 0:
                rc_cert = self.cli.main(["certify", "--input", self.report,
                                         "--output", self.verdict])
            t2 = perf_counter()
        tally.request_ms.append((t2 - t0) * 1e3)
        tally.solve_ms.append((t1 - t0) * 1e3)
        if rc_solve != 0:
            tally.record([f"{case.kind}: solve exit {rc_solve}"])
            return
        tally.certify_ms.append((t2 - t1) * 1e3)
        with open(self.report, encoding="utf-8") as fh:
            report = json.load(fh)
        with open(self.verdict, encoding="utf-8") as fh:
            verdict = fh.read().strip().splitlines()
        tally.record(self._check_report(case, report, rc_cert, verdict, tally))

    @staticmethod
    def _check_report(case, report, rc_cert, verdict, tally):
        problems = []
        branch = report["branch"]
        tally.branches[branch] += 1
        q = float(report["q_opt"])
        if branch != case.expected_branch:
            problems.append(f"{case.kind}: branch {branch}")
        if branch == "FirstClassFidelity" and abs(q - case.floor) > FLOOR_TOL:
            problems.append(f"{case.kind}: q off the fidelity floor")
        if q < case.floor - FLOOR_TOL or q > 1.0 + FLOOR_TOL:
            problems.append(f"{case.kind}: q outside [floor, 1]")
        if branch == "OracleOnly":
            diag = report["diagnostics"]
            tally.oracle_iterations.append(diag["oracle_iterations"])
            tally.oracle_converged.append(diag["oracle_converged"])
        if "certificate" not in report:
            if branch != "OracleOnly":
                problems.append(f"{case.kind}: analytic report without witness")
            elif rc_cert == 0:
                problems.append(f"{case.kind}: certify passed a report without witness")
            else:
                tally.uncertified += 1
        elif rc_cert != 0 or not verdict or verdict[-1] != "PASS":
            problems.append(f"{case.kind}: certify rejected a genuine report")
        return problems

    def _tamper(self, tally, count):
        kind = TAMPER_CLASSES[count % len(TAMPER_CLASSES)]
        with open(self.report, encoding="utf-8") as fh:
            report = json.load(fh)
        tamper(report, kind, self.tamper_rng)
        with open(self.tampered, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        with contextlib.redirect_stderr(io.StringIO()):
            rc = self.cli.main(["certify", "--input", self.tampered, "--output", self.verdict])
        tally.tampered[kind] += 1
        if rc != 0:
            tally.tamper_caught[kind] += 1

    def _sweep(self, tally):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            rc = self.cli.main(["bb84-sweep"])
            t1 = perf_counter()
        tally.request_ms.append((t1 - t0) * 1e3)
        if rc != 0:
            tally.record([f"bb84-sweep exit {rc}"])
        else:
            tally.record(check_sweep(out.getvalue(), tally))


def check_sweep(csv, tally):
    """Compare a sweep table with the closed forms; returns the problems."""
    lines = csv.strip().splitlines()
    grid = inputs.bb84_grid()
    if lines[0] != "mu,q_basis,q_bit,branch_bit,min_eig" or len(lines) != len(grid) + 1:
        return ["bb84-sweep: table shape"]
    problems = []
    for mu, line in zip(grid, lines[1:]):
        f_mu, q_basis, q_bit, branch, _ = line.split(",")
        tally.branches[branch] += 1
        floor = math.exp(-mu)
        if abs(float(f_mu) - mu) > 1e-9:
            problems.append("bb84-sweep: grid point")
        if abs(float(q_basis) - inputs.q_basis_closed_form(mu)) > FLOOR_TOL:
            problems.append("bb84-sweep: q_basis off the closed form")
        projective = inputs.bit_gap_closed_form(mu) < 0
        if branch != ("GuProjective" if projective else "FirstClassFidelity"):
            problems.append("bb84-sweep: bit branch")
        elif not projective and abs(float(q_bit) - floor) > FLOOR_TOL:
            problems.append("bb84-sweep: q_bit off the fidelity floor")
        elif float(q_bit) < floor - FLOOR_TOL:
            problems.append("bb84-sweep: q_bit below the fidelity floor")
    return problems


def _matrix(obj):
    return np.array(obj["re"]) + 1j * np.array(obj["im"])


def _set_matrix(obj, m):
    obj["re"] = m.real.tolist()
    obj["im"] = m.imag.tolist()


def tamper(report, kind, rng):
    """Alter one part of a genuine report in place; a sound audit rejects
    every result."""
    if kind == "q_opt":
        report["q_opt"] = 0.5 * report["q_opt"]
    elif kind == "e0_negated":
        _set_matrix(report["povm"]["e0"], -_matrix(report["povm"]["e0"]))
    elif kind == "witness":
        cert = report["certificate"]
        _set_matrix(cert["z"], 1.05 * _matrix(cert["z"]))
        cert["success_trace"] = 1.05 * cert["success_trace"]
    elif kind == "state":
        rho0 = _matrix(report["problem"]["rho0"])
        w = inputs.small_rotation(rng, rho0.shape[0])
        rotated = inputs.herm(w @ rho0 @ w.conj().T)
        _set_matrix(report["problem"]["rho0"], rotated / np.trace(rotated).real)
    elif kind == "branch":
        report["branch"] = ("GuProjective" if report["branch"] == "FirstClassFidelity"
                            else "FirstClassFidelity")
    else:
        raise ValueError(f"unknown tamper class {kind!r}")
