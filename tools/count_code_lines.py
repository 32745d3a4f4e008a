#!/usr/bin/env python3
"""Count the code lines of Python files.

``python tools/count_code_lines.py PATH...`` prints one ``<count>  <file>``
line per ``.py`` file (directories are walked recursively, in sorted order)
and a ``<count>  total`` line. A code line is a line that holds at least one
token other than a comment or a line break, minus the lines of module,
class and function docstrings. A token that spans several lines (a
triple-quoted string, a bracketed continuation's string) marks every line
it spans, so a multi-line string literal that is not a docstring counts in
full. Blank lines, comment-only lines and docstrings do not count.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that never make a line a code line on their own.
_LAYOUT = frozenset(
    {
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    }
)


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by module, class and function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            doc = body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """The number of code lines in one module's source text."""
    marked: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            marked.update(range(token.start[0], token.end[0] + 1))
    return len(marked - docstring_lines(ast.parse(source)))


def python_files(paths: list[str]) -> list[Path]:
    """The ``.py`` files under ``paths``, each once, in argument order."""
    files: dict[Path, None] = {}
    for name in paths:
        path = Path(name)
        found = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        files.update(dict.fromkeys(found))
    return list(files)


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: count_code_lines.py PATH...", file=sys.stderr)
        return 2
    total = 0
    for path in python_files(paths):
        count = count_code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:7d}  {path}")
    print(f"{total:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
