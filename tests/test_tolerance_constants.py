"""The library's tolerances, rank cutoffs and loop caps are module
constants, not parameters: no function or method of any usdisc module,
nested ones and lambdas included, takes a tol, rel_cutoff or max_iters
argument."""

import importlib
import pkgutil
from pathlib import Path

import usdisc

KNOBS = {"tol", "rel_cutoff", "max_iters"}


def _knobs(path: Path):
    """(function, parameter) for every knob-named parameter of every
    function compiled from the source file, read off the code objects."""
    found = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if hasattr(c, "co_varnames"))
        nargs = code.co_argcount + code.co_kwonlyargcount
        for param in set(code.co_varnames[:nargs]) & KNOBS:
            found.add((getattr(code, "co_qualname", code.co_name), param))
    return found


def test_no_tolerance_parameters():
    found = set()
    for name in ["usdisc"] + [f"usdisc.{m.name}" for m in pkgutil.iter_modules(usdisc.__path__)]:
        found |= {(name, *k) for k in _knobs(Path(importlib.import_module(name).__file__))}
    assert found == set()

