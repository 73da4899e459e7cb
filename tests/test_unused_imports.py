"""Every module-level import in src/charcond is read by its module, and
every name in a module's `__all__` exists.

No linter ships with the project, so each module's syntax tree is walked
with `ast`: a name that a top-level `import` or `from ... import` binds must
be loaded somewhere in the module, or be listed in its `__all__`, which
re-exports it.  Since `__all__` exempts a name from that check, a stale
entry could hide an unused import, so each listed name must also be an
attribute of the imported module.
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
