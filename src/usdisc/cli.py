"""Command-line surface for solving, certifying and sweeping.

Exit codes: 0 on success, 1 on invalid input or a report that fails
certify, 2 on any other error (a numerical failure). An input that
cannot be read and an output that cannot be written are invalid input,
reported as "cannot read PATH: ..." or "cannot write PATH: ...". Branch
choice is the library's (solvers.solve). Identical invocations produce
byte-identical output. --output rewrites an existing file in place and
then cuts it to the new length, so a process killed in between leaves
the old file's tail after the new text.
"""

import argparse
import functools
import os
import stat
import sys

from . import bb84, serialize
from .errors import InvalidInput, UsdError
from .oracle import oracle_optimize
from .problem import failure_probability, validate_problem
from .solvers import audit_report, solve


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; keep 2 reserved for
    # numerical failures
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


# built on the first main() call and shared after; nothing mutates the
# parser once it is built, and parse_args keeps no state between calls
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="usdisc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(sp, needs_input):
        if needs_input:
            sp.add_argument("--input", required=True, help="problem or report file")
        sp.add_argument("--output", help="write result here instead of stdout")

    sp = sub.add_parser("solve", help="optimal measurement for a problem file")
    add_io(sp, True)
    sp.add_argument("--renormalize", action="store_true",
                    help="rescale input states to unit trace")

    sp = sub.add_parser("certify", help="re-verify a solve report")
    add_io(sp, True)

    sp = sub.add_parser("oracle", help="numerical optimization only")
    add_io(sp, True)
    sp.add_argument("--renormalize", action="store_true")

    sp = sub.add_parser("bb84-sweep", help="failure-probability table over photon numbers")
    add_io(sp, False)
    sp.add_argument("--mu-start", type=float, default=bb84.DEFAULT_GRID[0])
    sp.add_argument("--mu-end", type=float, default=bb84.DEFAULT_GRID[1])
    sp.add_argument("--mu-step", type=float, default=bb84.DEFAULT_GRID[2])

    sp = sub.add_parser("bb84-mu0", help="threshold photon number")
    add_io(sp, False)
    return parser


def _emit(text: str, output_path):
    """Write text to output_path, or to stdout when no path is given.

    An existing file is rewritten in place: the text goes over the old
    bytes, then a regular file is cut to the text's length (pipes, ttys
    and devices would ignore O_TRUNC, so they are not cut). Opening with
    O_TRUNC would cut the file to zero first, which on ext4 forces block
    allocation and writeback on close, about ten times the cost of the
    write; a temporary file moved over the output with os.replace also
    forces writeback. The rewrite is not atomic, and neither is one with
    O_TRUNC. A process killed between the write and the cut leaves the
    new text followed by the old file's tail, where an O_TRUNC rewrite
    would leave an empty or partial file. A report with such a tail is
    not valid JSON, and certify rejects it.
    """
    if not output_path:
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    try:
        fd = os.open(output_path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise InvalidInput(f"cannot write {output_path}: {exc.strerror}") from exc


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"cannot read {path}: not UTF-8 ({exc.reason} "
                           f"at offset {exc.start})") from exc
    return serialize.loads(text)


def _load_problem(args):
    obj = _read_json(args.input)
    p = serialize.problem_from_obj(obj, renormalize=getattr(args, "renormalize", False))
    rep = validate_problem(p)
    if not rep.ok:
        details = ", ".join(
            f"{name} (residual {rep.residuals[name]:.3e})" for name in rep.failures
        )
        raise InvalidInput(f"problem fails validation: {details}")
    return p


def _cmd_solve(args) -> int:
    p = _load_problem(args)
    report = solve(p)
    _emit(serialize.dumps(serialize.report_to_obj(p, report)), args.output)
    return 0


def _cmd_certify(args) -> int:
    p, report = serialize.report_from_obj(_read_json(args.input))
    rep = audit_report(p, report)
    lines = [f"{name}: {value:.6e}" for name, value in sorted(rep.residuals.items())]
    lines.append("PASS" if rep.ok else "FAIL: " + ", ".join(rep.failures))
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if rep.ok else 1


def _cmd_oracle(args) -> int:
    p = _load_problem(args)
    result = oracle_optimize(p)
    q, q0, q1 = failure_probability(p, result.povm)
    obj = {
        "q_opt": q,
        "q0": q0,
        "q1": q1,
        "iterations": result.iterations,
        "converged": result.converged,
        "duality_gap": result.duality_gap,
        "stop": result.stop,
        "povm": serialize.povm_to_obj(result.povm),
    }
    _emit(serialize.dumps(obj), args.output)
    return 0


def _cmd_sweep(args) -> int:
    rows = bb84.sweep(args.mu_start, args.mu_end, args.mu_step)
    _emit(bb84.sweep_csv(rows), args.output)
    return 0


def _cmd_mu0(args) -> int:
    _emit(f"{bb84.find_mu0():.12g}\n", args.output)
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "certify": _cmd_certify,
    "oracle": _cmd_oracle,
    "bb84-sweep": _cmd_sweep,
    "bb84-mu0": _cmd_mu0,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # usage errors; --help also lands here, carrying code 0
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except InvalidInput as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except UsdError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
