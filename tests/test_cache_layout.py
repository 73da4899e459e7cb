"""The layout of the group and subgroup caches stays in `groups`.

Everything derived from a multiplication table or a subgroup is memoized by
`groups.cached`, which files it under the function's name and makes an
ndarray result read-only.  Outside `groups.py` a module may compare two
caches with `is` (`characters._same_group`) but reads no key of one, which
the first test checks on the syntax tree of every other module.  The second
checks, after a sweep, that every cached array is read-only, and so is every
array the conductor caches of `cyclotomic` hand out, and that a group's
table cache holds its table and nothing beside it.  The third checks that
no module memoizes with `functools`: conductor data go through the bounded
`cyclotomic._conductor_cache` and everything else through `groups.cached`.
The fourth keeps array scans at the boundary: on the table paths integer
widths and Gram primes come from bounds read off the tables' degrees
(`characters._table_bound`), and only where an array may be any array or a
kernel is given no bound may `cyclotomic._absmax` be called.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from charcond.arith import divisors
from charcond.catalog import Catalog
from charcond.cyclotomic import (_evaluation_data, _power_array, _rebase_data,
                                 _root_keys)
from charcond.groups import normal_subgroups
from charcond.verify import run_suite

SRC = Path(__file__).resolve().parents[1] / "src" / "charcond"


def cache_reads(source: str) -> list[int]:
    """The lines, sorted, where source reads an attribute `_cache` other
    than as an operand of an `is` comparison."""
    tree = ast.parse(source)
    compared = {id(side) for node in ast.walk(tree)
                if isinstance(node, ast.Compare)
                and all(isinstance(op, ast.Is) for op in node.ops)
                for side in (node.left, *node.comparators)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "_cache"
                  and id(node) not in compared)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "groups.py"),
                         ids=lambda p: p.name)
def test_only_groups_reads_a_cache(path):
    assert cache_reads(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_key_reads_and_allows_identity_tests():
    source = ("def same(a, b):\n    return a._cache is b._cache\n"
              "def memo(s):\n    if 'k' not in s._cache:\n"
              "        s._cache['k'] = 1\n    return s._cache['k']\n"
              "cache = g._cache\n")
    assert cache_reads(source) == [4, 5, 6, 7]


_FUNCTOOLS_MEMOS = {"lru_cache", "cache"}


def functools_memos(source: str) -> list[int]:
    """The lines, sorted, where source imports `lru_cache` or `cache` from
    functools or reads either as an attribute of `functools`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for alias in node.names
                      if alias.name in _FUNCTOOLS_MEMOS]
        elif (isinstance(node, ast.Attribute)
              and node.attr in _FUNCTOOLS_MEMOS
              and isinstance(node.value, ast.Name)
              and node.value.id == "functools"):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_memoizes_with_functools(path):
    assert functools_memos(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_functools_memos_only():
    source = ("from functools import lru_cache, wraps\n"
              "import functools\n"
              "@functools.cache\n"
              "def f(x):\n    return x\n"
              "from functools import cache as memo\n"
              "cache = {}\ng.cache\n")
    assert functools_memos(source) == [1, 3, 6]


# the functions of `src/` that may scan an array with `_absmax`, by module:
# `validate`, whose array may be any copy of a table, where conductor data
# are built, and the kernels that scan an operand given no bound, as the
# value-level and public paths and user-built class functions and contexts
# give them none
_SCANNERS = {
    "characters": {"validate"},
    "conductor": {"conductor_exponents"},
    "cyclotomic": {"_int_array", "_power_array", "_fold_bound", "_rebase_data",
                   "reduced", "_matmul", "scaled", "descend", "multiply",
                   "minimal_conductors", "gram", "gram_diagonal"},
}


def absmax_callers(source: str) -> set[str]:
    """The names of the innermost functions of source that call `_absmax`,
    by name or as an attribute; a call outside any function counts as
    "<module>"."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) == "_absmax"
                or getattr(node.func, "attr", None) == "_absmax"):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)
    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_boundary_functions_scan_arrays(path):
    got = absmax_callers(path.read_text(encoding="utf-8"))
    assert got == _SCANNERS.get(path.stem, set())


def test_the_check_sees_scans_in_nested_functions_and_attributes():
    source = ("def outer(a):\n    def inner(b):\n        return _absmax(b)\n"
              "    return inner(a)\n"
              "class T:\n    def m(self):\n        return cyclotomic._absmax(x)\n"
              "bound = _absmax(y)\nscan = _absmax\n")
    assert absmax_callers(source) == {"inner", "m", "<module>"}


def _arrays(value):
    """The ndarrays in a cached value: itself, or the members of a tuple."""
    items = value if isinstance(value, tuple) else (value,)
    return [a for a in items if isinstance(a, np.ndarray)]


def test_every_cached_array_is_read_only():
    cat = Catalog()
    assert run_suite("all", cat=cat, max_order=12).passed
    caches, exponents = [], set()
    for _, g in cat.groups_up_to(12):
        caches.append(g._cache)
        exponents.add(g.exponent())
        for s in normal_subgroups(g):
            caches += [s._cache, s.as_group()._cache]
    arrays = [a for cache in caches for value in cache.values()
              for a in _arrays(value)]
    # the embeddings, membership indices, tables, gathers and counts
    assert len(arrays) > 100
    for e in exponents:
        arrays += (_arrays(_power_array(e)) + _arrays(_root_keys(e))
                   + _arrays(_evaluation_data(e, 0)))
        for d in divisors(e):
            arrays += _arrays(_rebase_data(e, d))
    assert not [a for a in arrays if a.flags.writeable]


def test_a_table_cache_holds_the_table_and_nothing_beside_it():
    # a table's bound is read off its degrees and its evaluations are made
    # where they are read, so after a sweep every group's table cache holds
    # its classes, its exponent and the table's numerators, and no sidecar
    cat = Catalog()
    assert run_suite("all", cat=cat, max_order=24).passed
    assert {frozenset(g._cache) for _, g in cat.groups_up_to(24)} == {
        frozenset({"_table", "conjugacy_classes", "exponent"})}
