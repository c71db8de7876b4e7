#!/usr/bin/env python3
"""Count the code lines of each module of a package, and their total.

A code line holds at least one token that is not a comment and is not part
of a docstring (the string statement that opens a module, class or function
body).  Blank lines, comment-only lines and docstring lines are not counted.

    python scripts/code_lines.py            # src/robust_fps
    python scripts/code_lines.py PATH ...   # other files or directories
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in one module's source."""
    skip = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", default=[str(ROOT / "src" / "robust_fps")])
    args = ap.parse_args(argv)
    counts = []
    for p in map(pathlib.Path, args.paths):
        for f in sorted(p.rglob("*.py")) if p.is_dir() else [p]:
            label = str(f.relative_to(p).with_suffix("")) if p.is_dir() else str(f)
            counts.append((code_lines(f.read_text(encoding="utf-8")), label))
    for n, label in sorted(counts, key=lambda c: (-c[0], c[1])):
        print(f"{n:6d}  {label}")
    print(f"{sum(n for n, _ in counts):6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
