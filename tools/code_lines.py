#!/usr/bin/env python3
"""Count code lines: non-blank, non-comment, non-docstring.

``python tools/code_lines.py PATH...`` prints one ``<count>  <path>``
line per file -- a directory stands for every ``*.py`` below it, in
sorted order -- and a ``total`` line when more than one file was
counted.  A line counts when it carries at least one token that is
neither a comment nor part of a docstring (located with ``ast``, so
deleting comments or docstrings never moves the number).  The size
budgets quoted in ROADMAP.md and CHANGES.md are measured with this
script; the CI lint job prints the largest files and the ``src`` total
on every PR.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import List, Sequence, Set

_NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """Number of lines of ``source`` holding code."""
    docstring_lines: Set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            docstring_lines.update(range(first.lineno, (first.end_lineno or first.lineno) + 1))
    lines: Set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines)


def python_files(paths: Sequence[str]) -> List[Path]:
    """``paths`` with every directory replaced by the ``*.py`` files below it."""
    files: List[Path] = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main() -> int:
    """Print the code-line count of every path on the command line."""
    counts = [
        (code_lines(path.read_text(encoding="utf-8")), path)
        for path in python_files(sys.argv[1:])
    ]
    for count, path in counts:
        print(f"{count:6d}  {path}")
    if len(counts) > 1:
        print(f"{sum(count for count, _ in counts):6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
