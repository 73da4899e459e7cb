"""Hot paths call ndarray methods and ufuncs, not numpy's Python wrappers.

`np.any(x)`, `np.flatnonzero(x)` and their kin are Python functions that
dispatch to the ndarray method after a dispatcher and a wrapper frame; on
the small arrays of this package each such call costs 1-4 us more than
`x.any()` or `x.nonzero()[0]`, and a search such as `np.argwhere` that
finds nothing costs what an `.any()` guard does several times over.  The
first test checks on the syntax tree that no module of `src/charcond` reads
any of those wrappers from numpy, and that `np.array_equal` and `np.ix_`
are read only where they are kept: `ClassFunction._same_form` compares
arrays whose shapes may differ, and `product_chain`, which runs a few times
a round, builds its grids with `np.ix_`.  A gather broadcasts index arrays,
`a[rows[:, None], cols]`, and arrays of one shape compare with
`(a == b).all()`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "charcond"

_WRAPPERS = {"any", "all", "argmax", "take", "nonzero", "flatnonzero",
             "argwhere", "broadcast_to"}

# wrappers kept in a few functions, by module: the functions that may read
# each of them
_KEPT = {
    "characters": {"array_equal": {"_same_form"}},
    "groups": {"ix_": {"product_chain"}},
}


def numpy_reads(source: str) -> set[tuple[str, str]]:
    """The (numpy name, innermost function) pairs where source reads one of
    the wrappers, `np.array_equal` or `np.ix_` as an attribute of `np` or
    `numpy`, or imports it from numpy; outside any function the function is
    "<module>"."""
    watched = _WRAPPERS | {"array_equal", "ix_"}
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif (isinstance(node, ast.Attribute) and node.attr in watched
              and isinstance(node.value, ast.Name)
              and node.value.id in ("np", "numpy")):
            found.add((node.attr, where))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found.update((alias.name, where) for alias in node.names
                         if alias.name in watched)
        for child in ast.iter_child_nodes(node):
            visit(child, where)
    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_calls_numpy_wrappers_on_hot_paths(path):
    kept = _KEPT.get(path.stem, {})
    got = numpy_reads(path.read_text(encoding="utf-8"))
    assert {(name, where) for name, where in got
            if where not in kept.get(name, ())} == set()


def test_the_check_sees_wrapper_reads_and_allows_methods_and_ufuncs():
    source = ("import numpy as np\nfrom numpy import flatnonzero as nz\n"
              "def f(x, y):\n    if np.any(x):\n"
              "        return np.argwhere(x)[0]\n"
              "    ok = x.any() and (x == y).all() and np.array_equal(x, y)\n"
              "    return x.nonzero()[0], np.logical_or.reduce([x, y])\n"
              "class T:\n    def g(self, a):\n"
              "        return numpy.take(a, [0]), a[np.ix_([0], [1])]\n"
              "pick = np.flatnonzero\n")
    assert numpy_reads(source) == {
        ("flatnonzero", "<module>"), ("any", "f"), ("argwhere", "f"),
        ("array_equal", "f"), ("take", "g"), ("ix_", "g")}
