"""Every definition in ``src/blockdiag`` has a caller in the program.

A top-level function or class, or a method of a top-level class, that
nothing in ``src/blockdiag`` or ``perfbench`` references by name or
attribute outside its own definition is code only its tests run, and is
deleted rather than kept. Dunder methods are called by Python itself.
Imports do not count as references, so a name that ``__init__`` re-exports
still needs a caller.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "blockdiag"
PROGRAM = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, _DEFINITIONS):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, _DEFINITIONS))


def _references(tree: ast.Module):
    """``(name, line)`` of every name and attribute read or written."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _uncalled() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PROGRAM}
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _definitions(trees[path]):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            called = any(
                ref == name and not (other == path and line in own)
                for other, found in refs.items()
                for ref, line in found
            )
            if not called:
                out.append(f"{path.name}:{node.lineno} {name}")
    return out


def test_every_definition_has_a_caller_in_the_program():
    assert _uncalled() == []
