#!/usr/bin/env python3
"""Report the size of ``src/repro/core``: physical lines and code lines.

Physical lines are what ``wc -l`` counts.  Code lines skip blank
lines, comment-only lines and docstrings (module, class and function
docstrings, found with :mod:`ast`); a line counts when it carries at
least one token (:mod:`tokenize`) outside a docstring.

Usage (from the repository root)::

    python tools/core_size.py            # src/repro/core
    python tools/core_size.py src/repro/bitops.py src/repro/core

Prints one line per file, then the totals.  Report only: always
exits 0.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_TARGETS = ("src/repro/core",)

#: Tokens that never make a line count as code.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> Set[int]:
    """Line numbers covered by module, class and function docstrings."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def measure(source: str) -> Tuple[int, int]:
    """``(physical lines, code lines)`` of one Python source."""
    skipped = docstring_lines(ast.parse(source))
    code: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            continue
        code.update(line for line in range(token.start[0], token.end[0] + 1)
                    if line not in skipped)
    return source.count("\n"), len(code)


def python_files(targets: Iterable[str]) -> List[Path]:
    files: List[Path] = []
    for target in targets:
        path = (ROOT / target).resolve()
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: List[str]) -> int:
    targets = argv or list(DEFAULT_TARGETS)
    total_lines = total_code = 0
    for path in python_files(targets):
        lines, code = measure(path.read_text())
        total_lines += lines
        total_code += code
        print(f"{lines:6d} {code:6d}  {path.relative_to(ROOT)}")
    print(f"{total_lines:6d} {total_code:6d}  total "
          f"({' '.join(targets)}: lines, code lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
