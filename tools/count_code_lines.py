#!/usr/bin/env python3
"""Count the code lines of a Python source tree.

A code line is a physical line that carries at least one token other than
a comment, a newline or indentation, and that is not part of a docstring
(the leading string statement of a module, class or function).  Blank
lines, comment-only lines and docstring lines are therefore excluded,
while every line of a multi-line expression or non-docstring string
counts.  This is the measure the "net negative lines" claims of
simplicity changes are stated in, so that the figure can be reproduced
from any checkout.

Usage:  python tools/count_code_lines.py [ROOT] [--files FILE ...]

Prints the total for ROOT (default ``src``), then one line per file named
with ``--files`` (paths relative to the working directory).
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path
from typing import Set

_NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_file(path: Path) -> int:
    """Code lines of one Python file."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(source))
    code: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NON_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def count_tree(root: Path) -> int:
    """Code lines of every ``*.py`` file under ``root``."""
    return sum(count_file(path) for path in sorted(root.rglob("*.py")))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default="src")
    parser.add_argument("--files", nargs="*", default=[])
    args = parser.parse_args()
    print(f"{args.root}: {count_tree(Path(args.root))}")
    for name in args.files:
        print(f"{name}: {count_file(Path(name))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
