"""Every definition in ``src/blockdiag`` has a caller in the program.

A top-level function or class, or a method of a top-level class, that
nothing in ``src/blockdiag`` or ``perfbench`` references by name or
attribute outside its own definition is code only its tests run, and is
deleted rather than kept. Dunder methods are called by Python itself.
Imports do not count as references, so a name that ``__init__`` re-exports
still needs a caller. Likewise every parameter of a function is read in its
body.
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


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _unread(node, bound: bool) -> list[str]:
    """Parameters of a function or lambda that its body never loads (nested
    functions included); with ``bound``, the first one is exempt."""
    a = node.args
    named = a.posonlyargs + a.args + a.kwonlyargs
    named += [v for v in (a.vararg, a.kwarg) if v]
    body = node.body if isinstance(node.body, list) else [node.body]
    loaded = {
        n.id
        for stmt in body
        for n in ast.walk(stmt)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return [p.arg for p in named[bound:] if p.arg not in loaded]


def _bound_methods(tree: ast.Module) -> set[int]:
    """ids of the methods whose first parameter Python binds (not static)."""
    return {
        id(m)
        for c in ast.walk(tree)
        if isinstance(c, ast.ClassDef)
        for m in c.body
        if isinstance(m, _FUNCTIONS[:2])
        and "staticmethod" not in [getattr(d, "id", None) for d in m.decorator_list]
    }


def _unread_parameters() -> list[str]:
    """``file:line function parameter`` for each parameter never read. The
    run functions of ``cli.COMMANDS``, whose signature is the command
    protocol, are exempt."""
    from blockdiag.cli import COMMANDS

    protocol = {command.run.__name__ for command in COMMANDS.values()}
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = _bound_methods(tree)
        for node in ast.walk(tree):
            name = getattr(node, "name", "lambda")
            if not isinstance(node, _FUNCTIONS) or (
                path.name == "cli.py" and name in protocol
            ):
                continue
            out += [
                f"{path.name}:{node.lineno} {name} {p}"
                for p in _unread(node, id(node) in bound)
            ]
    return out


def test_every_parameter_is_read():
    assert _unread_parameters() == []
