"""Count code lines: non-blank, non-comment, non-docstring, per file.

Usage: python benchmarks/code_lines.py [PATH ...]   (default: src)

A line counts when a token other than a comment, a newline or a
docstring starts or continues on it, so "net smaller" in a PR is a
number anyone can reproduce, not a sentence.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(path.read_bytes())):
        body = getattr(node, "body", None)
        if (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines: set[int] = set()
    with tokenize.open(path) as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type not in _SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    for root in argv or ["src"]:
        base = Path(root)
        files = sorted(base.rglob("*.py")) if base.is_dir() else [base]
        counts = {path: code_lines(path) for path in files}
        for path, count in counts.items():
            print(f"{count:>7}  {path}")
        print(f"{sum(counts.values()):>7}  {root} total ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
