#!/usr/bin/env python3
"""Report ``src/repro`` definitions that only the tests reference.

A definition is a module-level function or class, or a method of a
module-level class (dunder names are skipped).  It is *used* when its
name appears in the code of any Python file of the repository outside
``tests/``, other than its own ``def`` or ``class`` line: as a name,
an attribute, an imported name, a keyword argument, or an identifier
inside a string constant (so ``hostbench/layers.py``'s rebinding
strings and ``getattr`` names count).  Docstrings and comments are
not code.

The match is by bare name, so a definition shares its uses with every
other definition of that name, and the report can miss a test-only
definition.  A computed ``getattr`` name or a doctest is a use it
cannot see: check each listed name by hand before deleting it.

Usage (from the repository root)::

    python tools/test_only_defs.py

Prints one line per definition, ``path:line  name  (N lines)``, then
the count and total lines.  Report only: always exits 0.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "repro"
TESTS = ROOT / "tests"

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstrings(tree: ast.AST) -> Set[int]:
    """``id`` of every docstring constant in ``tree``."""
    found: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module,) + _DEFINITIONS) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                found.add(id(first.value))
    return found


def uses(tree: ast.AST) -> Set[str]:
    """Names the code of one module uses."""
    docstrings = _docstrings(tree)
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(_IDENTIFIER.findall(
                f"{node.name} {node.asname or ''}"))
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and \
                isinstance(node.value, str) and id(node) not in docstrings:
            names.update(_IDENTIFIER.findall(node.value))
    return names


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.AST) -> Iterator[Tuple[str, ast.AST]]:
    """``(qualified name, node)`` of module-level functions and classes
    and of the methods of module-level classes."""
    for node in tree.body:
        if not isinstance(node, _DEFINITIONS) or _dunder(node.name):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, _DEFINITIONS) and \
                        not _dunder(member.name):
                    yield f"{node.name}.{member.name}", member


def _outside_tests() -> List[Path]:
    return [path for path in sorted(ROOT.rglob("*.py"))
            if TESTS not in path.parents
            and not any(part.startswith(".") for part in
                        path.relative_to(ROOT).parts)]


def main() -> int:
    used: Set[str] = set()
    for path in _outside_tests():
        used |= uses(ast.parse(path.read_text(), str(path)))
    listed = total = 0
    for path in sorted(LIBRARY.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for qualified, node in definitions(tree):
            if node.name in used:
                continue
            span = node.end_lineno - node.lineno + 1
            listed += 1
            total += span
            print(f"{path.relative_to(ROOT)}:{node.lineno}  {qualified}  "
                  f"({span} lines)")
    print(f"{listed} definition(s), {total} lines, used only by tests/ "
          f"(or by nothing)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
