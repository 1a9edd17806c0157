"""Count the code lines of Python files.

A code line holds at least one token that is neither a comment nor part of a
docstring, the leading string of a module, class or function.  Blank lines,
comment-only lines and docstring lines do not count; every line of any other
multi-line token does.

    python tools/code_lines.py src/pslr/*.py

prints each file's count and then the total.  A directory stands for the
`*.py` files directly in it, in sorted order: `python tools/code_lines.py
src/pslr` prints the same.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions of every docstring in `tree`."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines in `source`."""
    docstrings = _docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and any(lo <= tok.start and tok.end <= hi
                                               for lo, hi in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(paths: list[str]) -> int:
    total = 0
    files = [f for p in map(Path, paths) for f in (sorted(p.glob("*.py")) if p.is_dir() else [p])]
    for path in files:
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
