"""Count the lines of ``src/**/*.py`` and ``tools/**/*.py`` at two revisions.

For every Python file under ``src/`` or ``tools/`` at either revision, prints
all lines and code lines at BASE and at HEAD, and their differences, then a
total for each of the two directories. Code
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
DIRS = ("src", "tools")
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def _sources(rev: str, top: str) -> dict[str, str]:
    """Path -> text of each ``top/**/*.py`` at ``rev`` (``.``: the working tree)."""
    if rev == ".":
        return {str(p.relative_to(ROOT)): p.read_text() for p in sorted((ROOT / top).rglob("*.py"))}
    names = subprocess.run(["git", "-C", str(ROOT), "ls-tree", "-r", "--name-only", rev, top],
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
    rows = []
    for top in DIRS:
        base, head = _sources(args.base, top), _sources(args.head, top)
        files = []
        for name in sorted(base.keys() | head.keys()):
            b = count(base[name]) if name in base else (0, 0)
            h = count(head[name]) if name in head else (0, 0)
            files.append((name, *b, *h))
        rows += files
        rows.append((f"total {top}/", *(sum(row[i] for row in files) for i in range(1, 5))))
    width = max(len(row[0]) for row in rows)
    print(f"{'file':<{width}}  {'all':>11} {'delta':>6}  {'code':>11} {'delta':>6}")
    for name, b_all, b_code, h_all, h_code in rows:
        print(f"{name:<{width}}  {b_all:>5}->{h_all:<5} {h_all - b_all:>+6}  "
              f"{b_code:>5}->{h_code:<5} {h_code - b_code:>+6}")


if __name__ == "__main__":
    main()
