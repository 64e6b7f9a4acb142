"""Count the lines of ``src/**/*.py`` at two revisions, side by side.

For every Python file under ``src/`` at either revision, prints all lines and
code lines at BASE and at HEAD, and their differences, then the totals. Code
lines leave out blank lines, comment-only lines and docstrings (the string
that opens a module, class or function body); a line that holds code and a
trailing comment counts as code.

    python tools/netlines.py HEAD~1 HEAD
    python tools/netlines.py HEAD          # HEAD against the working tree

A revision ``.`` stands for the working tree, which is also HEAD's default.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def _sources(rev: str) -> dict[str, str]:
    """Path -> text of each ``src/**/*.py`` at ``rev`` (``.``: the working tree)."""
    if rev == ".":
        return {str(p.relative_to(ROOT)): p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))}
    names = subprocess.run(["git", "-C", str(ROOT), "ls-tree", "-r", "--name-only", rev, "src"],
                           check=True, capture_output=True, text=True).stdout.split()
    return {
        name: subprocess.run(["git", "-C", str(ROOT), "show", f"{rev}:{name}"],
                             check=True, capture_output=True, text=True).stdout
        for name in names if name.endswith(".py")
    }


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(all lines, code lines) of one Python source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIPPED:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head", nargs="?", default=".")
    args = parser.parse_args(argv)
    base, head = _sources(args.base), _sources(args.head)
    rows = []
    for name in sorted(base.keys() | head.keys()):
        b = count(base[name]) if name in base else (0, 0)
        h = count(head[name]) if name in head else (0, 0)
        rows.append((name, *b, *h))
    rows.append(("total", *(sum(col) for col in list(zip(*rows))[1:])))
    width = max(len(row[0]) for row in rows)
    print(f"{'file':<{width}}  {'all':>11} {'delta':>6}  {'code':>11} {'delta':>6}")
    for name, b_all, b_code, h_all, h_code in rows:
        print(f"{name:<{width}}  {b_all:>5}->{h_all:<5} {h_all - b_all:>+6}  "
              f"{b_code:>5}->{h_code:<5} {h_code - b_code:>+6}")


if __name__ == "__main__":
    main()
