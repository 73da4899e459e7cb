"""Total and code lines of each module under a source tree.

Code lines leave out docstrings, comments and blank lines: a line counts
when a token other than a comment or a newline covers it and no module,
class or function docstring does.  With a git revision, each module's lines
at that revision come from `git show` as well, and two more columns give the
net change of the working tree against it.

    python tools/count_lines.py [SRC [REV]]   # SRC defaults to src/
    python tools/count_lines.py src HEAD~1    # net lines against HEAD~1
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def count(text: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    covered: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIP:
            covered.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(covered - _docstring_lines(ast.parse(text)))


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True,
                          capture_output=True, text=True).stdout


def _counts_at(root: Path, rev: str) -> dict[str, tuple[int, int]]:
    """(total, code) of each module under root at a git revision; paths
    relative to root."""
    names = _git(root, "ls-tree", "-r", "--name-only", rev, ".").split()
    return {name: count(_git(root, "show", f"{rev}:./{name}"))
            for name in names if name.endswith(".py")}


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    now = {str(path.relative_to(root)): count(path.read_text(encoding="utf-8"))
           for path in sorted(root.rglob("*.py"))}
    then = _counts_at(root, argv[2]) if len(argv) > 2 else None
    rows = []
    for name in sorted(set(now) | set(then or {})):
        total, code = now.get(name, (0, 0))
        row = [name, total, code]
        if then is not None:
            old = then.get(name, (0, 0))
            row += [total - old[0], code - old[1]]
        rows.append(row)
    rows.append(["total"] + [sum(r[i] for r in rows)
                             for i in range(1, len(rows[0]))])
    width = max(len(r[0]) for r in rows)
    heads = ["total", "code"] + (["net", "net code"] if then is not None else [])
    print(f"{'module':<{width}}" + "".join(f"  {h:>8}" for h in heads))
    for name, *nums in rows:
        print(f"{name:<{width}}" + "".join(
            f"  {n:>+8}" if i >= 2 else f"  {n:>8}" for i, n in enumerate(nums)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
