"""Per-request call and eigen counts of the usdisc command line, by workload.

    python3 bench/layers.py [--parent REF] [--count N] [--out BENCH_31.json]

Run from the root of a source checkout. The seed-1 inputs of each
benchmark workload (perfbench/inputs.py) go through usdisc.cli.main in
process: solve, then certify of the report, for solve-certify and
oracle-fallback, and one default sweep for bb84-sweep. For every request
the script records the Python-level calls that cProfile counts, the
numpy eigh, eigvalsh, svd and cholesky calls (counted by wrapping
np.linalg, in a second pass, so that the wrappers add nothing to the
call count) and the oracle's Newton steps (the report's
oracle_iterations). Each is a fixed number for fixed inputs and fixed
Python and numpy versions, so figures taken on different machines
compare; no time is recorded. The file holds, per workload, the mean of
each count per request, overall and by the branch each solve reports.

Each side is measured in a fresh interpreter. The "change" side is this
checkout's src/; with --parent REF a "parent" side is measured on
`git archive REF` of this repository, with the same inputs. The counts
of the first request of each workload, which builds the command-line
parsers, are left out: a warm-up request runs before them.
"""

import argparse
import contextlib
import cProfile
import io
import json
import os
import platform
import pstats
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import inputs  # noqa: E402  (perfbench's seeded inputs; they never import usdisc)
from workloads import FALLBACK_POOL, SOLVE_CERTIFY_POOL  # noqa: E402

SCHEMA = "usdisc-layers/1"
WORKLOADS = ("solve-certify", "bb84-sweep", "oracle-fallback")
EIG_FUNCTIONS = ("eigh", "eigvalsh", "svd", "cholesky")
COUNTS = ("calls",) + EIG_FUNCTIONS + ("newton_steps",)


def _streams(count):
    """(workload, [problem text, ...]) for the seed-1 inputs, at most
    count of each; the sweep takes no input."""
    solve_certify = inputs.solve_certify_cases(1, count or SOLVE_CERTIFY_POOL)
    fallback = inputs.fallback_cases(1, count or FALLBACK_POOL)
    return (("solve-certify", [text for text, _ in solve_certify]), ("bb84-sweep", [None]),
            ("oracle-fallback", [text for text, _ in fallback]))


class _Request:
    """One request of a workload: solve and certify of a problem text, or
    a default sweep."""

    def __init__(self, cli, workdir, text):
        self.cli, self.text = cli, text
        os.makedirs(workdir, exist_ok=True)
        self.problem, self.report, self.verdict = (
            os.path.join(workdir, name) for name in ("problem.json", "report.json", "verdict.txt"))
        if text is not None:
            with open(self.problem, "w", encoding="utf-8") as fh:
                fh.write(text)

    def __call__(self):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            if self.text is None:
                return self.cli.main(["bb84-sweep"]) == 0
            if self.cli.main(["solve", "--input", self.problem, "--output", self.report]) != 0:
                return False
            return self.cli.main(["certify", "--input", self.report, "--output", self.verdict]) == 0

    def outcome(self):
        """(branch, Newton steps) of the last solve."""
        if self.text is None:
            return "sweep", 0
        with open(self.report, encoding="utf-8") as fh:
            report = json.load(fh)
        return report["branch"], int(report["diagnostics"].get("oracle_iterations", 0))


def _eig_counter():
    """Wrap the np.linalg functions usdisc reaches through that attribute;
    returns the counter and a function that restores them."""
    counts = Counter()
    originals = {name: getattr(np.linalg, name) for name in EIG_FUNCTIONS}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def restore():
        for name, fn in originals.items():
            setattr(np.linalg, name, fn)

    for name, fn in originals.items():
        setattr(np.linalg, name, counted(name, fn))
    return counts, restore


def _summary(rows):
    """Requests and the mean of each count per request."""
    n = len(rows)
    return {"requests": n, **{k: round(sum(r[k] for r in rows) / n, 3) for k in COUNTS}}


def measure(streams, workdir):
    """{workload: summary} for the given (workload, texts) streams, on the
    usdisc that is importable now."""
    from usdisc import cli

    result = {}
    for name, texts in streams:
        requests = [_Request(cli, os.path.join(workdir, f"{name}-{i}"), text)
                    for i, text in enumerate(texts)]
        requests[0]()  # warm-up: builds the parsers, fills import caches
        rows, failed = [], 0
        for request in requests:
            profile = cProfile.Profile()
            profile.enable()
            ok = request()
            profile.disable()
            counts, restore = _eig_counter()
            try:
                ok = request() and ok
            finally:
                restore()
            branch, steps = request.outcome()
            failed += not ok
            rows.append({"branch": branch, "calls": pstats.Stats(profile).total_calls,
                         **{k: counts[k] for k in EIG_FUNCTIONS}, "newton_steps": steps})
        by_branch = defaultdict(list)
        for row in rows:
            by_branch[row["branch"]].append(row)
        result[name] = {**_summary(rows), "failed": failed,
                        "branches": {b: _summary(r) for b, r in sorted(by_branch.items())}}
    return result


def _measure_tree(src, count):
    """measure() of the usdisc under src, in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, __file__, "--measure", str(src), "--count", str(count)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1"))
    return json.loads(done.stdout)


def _git(*args, **kwargs):
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True, **kwargs)
    return done.stdout


def _head():
    """This checkout's commit, or "unknown" outside a git repository."""
    try:
        return _git("rev-parse", "HEAD", text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="git ref of the parent side (omit for one side)")
    ap.add_argument("--count", type=int, default=0,
                    help="inputs per workload (default: the benchmark's pool of each)")
    ap.add_argument("--out", help="write the JSON here instead of stdout")
    ap.add_argument("--measure", help=argparse.SUPPRESS)  # the child side: a src directory
    args = ap.parse_args(argv)
    if args.measure:
        sys.path.insert(0, args.measure)
        with tempfile.TemporaryDirectory() as work:
            json.dump(measure(_streams(args.count), work), sys.stdout)
        return 0
    sides = {}
    with tempfile.TemporaryDirectory() as tmp:
        if args.parent:
            commit = _git("rev-parse", args.parent, text=True).strip()
            with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", commit))) as tar:
                tar.extractall(tmp, filter="data")
            sides["parent"] = {"commit": commit, "workloads": _measure_tree(Path(tmp) / "src",
                                                                             args.count)}
    sides["change"] = {"commit": f"{_head()} and working tree",
                       "workloads": _measure_tree(ROOT / "src", args.count)}
    doc = {"schema": SCHEMA, "python": platform.python_version(), "numpy": np.__version__,
           "inputs": "seed 1" + (f", first {args.count} of each workload" if args.count else ""),
           "sides": sides}
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
