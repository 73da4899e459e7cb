"""Every module-level import in src/charcond is read by its module, every
name in a module's `__all__` exists, and every parameter of a function is
read by it.

No linter ships with the project, so each module's syntax tree is walked
with `ast`: a name that a top-level `import` or `from ... import` binds must
be loaded somewhere in the module, or be listed in its `__all__`, which
re-exports it.  Since `__all__` exempts a name from that check, a stale
entry could hide an unused import, so each listed name must also be an
attribute of the imported module.  A parameter that nothing reads is
dead weight in every call, such as a group passed along beside arrays that
already hold what is needed, so each function's parameters must be loaded
in its body, but where a dispatch table fixes the signature.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "charcond"


def unused_imports(source: str) -> list[str]:
    """The names that the top-level imports of source bind and nothing
    reads, in source order."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.partition(".")[0]
             for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            read |= {x.value for x in ast.walk(node.value)
                     if isinstance(x, ast.Constant) and isinstance(x.value, str)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_module_level_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_name_in_all_is_an_attribute_of_its_module(path):
    name = "charcond" if path.stem == "__init__" else f"charcond.{path.stem}"
    module = importlib.import_module(name)
    assert [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)] == []


def test_the_check_sees_unused_and_re_exported_names():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from .x import a, b as c, d\n"
              "__all__ = ['d']\n"
              "def f():\n    return a, os.sep\n")
    assert unused_imports(source) == ["system", "c"]


# signatures that a dispatch table fixes: every command handler takes the
# parsed arguments and every suite the order cap, read or not
_FIXED_SIGNATURES = {("cli", "_cmd_catalog", "args"),
                     ("verify", "suite_degrees", "max_order"),
                     ("verify", "suite_conductor", "max_order")}


def unused_parameters(source: str) -> list[tuple[str, str]]:
    """(function, parameter) for every parameter of a function of source
    that its body, nested functions included, never reads; `self`, `cls`
    and a name made of underscores, which declares a parameter unused, are
    exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                a for a in (args.vararg, args.kwarg) if a]
            read = {n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [(node.name, a.arg) for a in params
                      if a.arg not in read and a.arg not in ("self", "cls")
                      and a.arg.strip("_")]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    got = unused_parameters(path.read_text(encoding="utf-8"))
    assert [x for x in got if (path.stem, *x) not in _FIXED_SIGNATURES] == []


def test_the_check_sees_unread_parameters_only():
    source = ("def f(a, b, *args, c=1, **kw):\n    return a + c\n"
              "class T:\n    def m(self, x, *_):\n        def g():\n"
              "            return x\n        return g\n"
              "def h(y):\n    y = 2\n    return 1\n")
    assert unused_parameters(source) == [("f", "b"), ("f", "args"), ("f", "kw"),
                                         ("h", "y")]
