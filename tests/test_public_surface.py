"""The package exports only what something other than its own unit tests
reaches: the library itself, the README's documented API, the
acceptance suite and its instance generators, or the CI workflow."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "usdisc"


def _read(path):
    return path.read_text(encoding="utf-8")


def _exported() -> set:
    """Every name usdisc/__init__.py imports (__version__ is assigned)."""
    tree = ast.parse(_read(PACKAGE / "__init__.py"))
    return {alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _read_names(path) -> set:
    """The names a Python file reads, as a Name or an Attribute; a def or
    class statement binds its name without reading it, and an import is
    not a use."""
    names = set()
    for node in ast.walk(ast.parse(_read(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _words(text) -> set:
    return set(re.findall(r"\w+", text))


def _markdown_code(text) -> list:
    """The fenced code blocks and the code spans of a Markdown text."""
    fence = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
    return fence.findall(text) + re.findall(r"`([^`]+)`", fence.sub("", text))


def test_every_export_is_reached_beyond_its_own_unit_tests():
    reached = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            reached |= _read_names(path)
    for name in ("test_acceptance.py", "conftest.py"):
        reached |= _read_names(ROOT / "tests" / name)
    for code in _markdown_code(_read(ROOT / "README.md")):
        reached |= _words(code)
    for path in (ROOT / ".github" / "workflows").glob("*.yml"):
        reached |= _words(_read(path))
    unreached = sorted(_exported() - reached)
    assert not unreached, (f"exported, but reached by no library code, README code, "
                           f"acceptance test or CI step: {unreached}")
