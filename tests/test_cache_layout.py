"""The layout of the group and subgroup caches stays in `groups`.

Everything derived from a multiplication table or a subgroup is memoized by
`groups.cached`, which files it under the function's name and makes an
ndarray result read-only.  Outside `groups.py` a module may compare two
caches with `is` (`characters._same_group`) but reads no key of one, which
the first test checks on the syntax tree of every other module.  The second
checks, after a sweep, that every cached array is read-only, and so is every
array the conductor caches of `cyclotomic` hand out.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from charcond.arith import divisors
from charcond.catalog import Catalog
from charcond.cyclotomic import _evaluation_data, _power_array, _rebase_data
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
        arrays += _arrays(_power_array(e)) + _arrays(_evaluation_data(e, 0))
        for d in divisors(e):
            arrays += _arrays(_rebase_data(e, d))
    assert not [a for a in arrays if a.flags.writeable]
