"""Count the code lines of blockdiag.

A code line is a non-blank line that holds at least one token other than a
comment and is not part of a module, class or function docstring. Lines are
read with ``tokenize`` (so a multi-line statement or string counts each line
it spans) and docstrings are found with ``ast``.

    python3 tools/count_code_lines.py            # src/blockdiag/*.py
    python3 tools/count_code_lines.py a.py b.py  # per file, then the total
    python3 tools/count_code_lines.py --rev REV  # per module at REV and now

With ``--rev`` each module of ``src/blockdiag`` is counted as committed at
the git revision REV (read through ``git show``; nothing is written) and as
it is in the working tree, with the difference, then the totals. A module
missing on one side counts 0 there.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

#: The repository root: the package is ``ROOT / PACKAGE``.
ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/blockdiag"

_NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """Line numbers spanned by the docstrings of the module, classes and functions."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, _DOCUMENTED) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines of ``source``."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NON_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
    ).stdout


def counts_at(rev: str) -> dict[str, int]:
    """Code lines of each module of the package as committed at ``rev``."""
    names = _git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
    return {
        name: code_lines(_git("show", f"{rev}:{PACKAGE}/{name}"))
        for name in names
        if name.endswith(".py")
    }


def compare(rev: str) -> None:
    """Print each module's count at ``rev``, in the working tree, and the change."""
    before = counts_at(rev)
    now = {p.name: code_lines(p.read_text()) for p in (ROOT / PACKAGE).glob("*.py")}
    rows = [(name, before.get(name, 0), now.get(name, 0)) for name in sorted({*before, *now})]
    rows.append(("total", sum(before.values()), sum(now.values())))
    print(f"{'module':<16}{rev[:12]:>12}{'tree':>8}{'change':>8}")
    for name, old, new in rows:
        print(f"{name:<16}{old:>12}{new:>8}{new - old:>+8}")


def main(argv: list[str]) -> int:
    if argv[:1] == ["--rev"] and len(argv) == 2:
        compare(argv[1])
        return 0
    paths = [Path(a) for a in argv] or sorted((ROOT / PACKAGE).glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path.read_text())
        total += count
        if argv:
            print(f"{count:6d}  {path}")
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
