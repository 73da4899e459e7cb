"""Character tables of abelian groups from the dual group.

`characters._abelian_rows` extends characters over the generating set S kept
from the group's axiom check.  It shares no step with Dixon's method before
`_check_table`, so `_dixon_rows` is its oracle: the two arrays must be equal
in values and dtype.  Its rows are sorted as exponents of zeta_e, by each
root's rank in the order of `cyclotomic._root_keys`; the oracle of that
order is `_row_order` on the numerators, which keys each distinct value on
its own.  A generating set
that does not generate must raise, never return a table.
"""

import weakref

import numpy as np
import pytest

from charcond import characters, cyclotomic, groups
from charcond.catalog import Catalog
from charcond.cyclotomic import Cyclotomic, _power_array, _root_keys, reduced
from charcond.errors import InternalContradiction
from charcond.groups import build_from_permutations, is_abelian
from charcond.verify import run_suite

_CAT = Catalog()
_NAMED = ([n for n in _CAT.base_names() if is_abelian(_CAT.group(n))]
          + ["C2xC2", "C2xC3", "C6xC6", "C4xC4xC3", "C6xC6xC6"])


def disjoint_cycles(*lengths):
    """The product of cyclic groups, one cycle of each length on its own
    points, each cycle one generator."""
    degree, gens, at = sum(lengths), [], 0
    for n in lengths:
        img = list(range(degree))
        img[at:at + n] = img[at + 1:at + n] + [at]
        gens.append(img)
        at += n
    return build_from_permutations(degree, gens)


def assert_dixons_array(g):
    got, want = characters._abelian_rows(g), characters._dixon_rows(g)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", _NAMED)
def test_dual_group_table_is_dixons_array(name):
    assert_dixons_array(_CAT.group(name))


@pytest.mark.parametrize("lengths", [(100,), (128,), (4, 4, 4, 4)],
                         ids=["C100", "C128", "C4^4"])
def test_dual_group_table_is_dixons_array_on_permutation_groups(lengths):
    # C128 is the largest cyclic table the work cap admits, and C4^4 the
    # largest abelian one the class cap admits
    assert_dixons_array(disjoint_cycles(*lengths))


def test_every_abelian_table_of_a_sweep_is_dixons_array(monkeypatch):
    # the subgroups and quotients of a sweep number their elements as the
    # catalog does not; every dual-group build of a round is compared, on an
    # empty content cache so that no table another test keeps alive is
    # served instead
    built, mismatches = [], []
    dual = characters._abelian_rows

    def compared(g):
        got, want = dual(g), characters._dixon_rows(g)
        built.append(g.order)
        if got.dtype != want.dtype or not np.array_equal(got, want):
            mismatches.append(g.name)
        return got

    monkeypatch.setattr(characters, "_abelian_rows", compared)
    monkeypatch.setattr(groups, "_TABLE_CACHES", weakref.WeakValueDictionary())
    assert run_suite("all", cat=Catalog(), max_order=24).passed
    assert len(built) == 36 and mismatches == []


def test_a_set_that_does_not_generate_raises():
    # a fresh group of its own, so that no shared table is touched
    g = disjoint_cycles(4, 4, 3)
    assert len(g.generators) == 3
    g.generators = g.generators[:-1]
    with pytest.raises(InternalContradiction, match="does not reach"):
        characters._abelian_rows(g)


def test_the_trivial_group_needs_no_generator():
    g = disjoint_cycles(1)
    assert g.generators == ()
    assert characters._abelian_rows(g).tolist() == [[[1]]]


@pytest.mark.parametrize("name", [n for n in _CAT.base_names()
                                  if is_abelian(_CAT.group(n))]
                         + ["C2xC2xC2", "C6xC6", "C4xC4xC3"])
def test_dual_group_order_is_the_row_order_of_the_unordered_gather(
        name, monkeypatch):
    # the builder sorts the exponents a[:, reps] as the extension leaves
    # them, unordered, by their ranks among the roots of unity in
    # `_root_keys` order: its second `_sorted_by` call sees those ranks, and
    # the roots in that order turn them back into exponents.  The oracle
    # gathers their numerators, narrows them and sorts them by `_row_order`
    seen = []
    sorted_by = characters._sorted_by

    def hook(keys):
        seen.append(keys)
        return sorted_by(keys)

    monkeypatch.setattr(characters, "_sorted_by", hook)
    g = _CAT.group(name)
    e = g.exponent()
    got = characters._abelian_rows(g)
    assert len(seen) == 2
    roots = np.lexsort(_root_keys(e).T[::-1])
    nums = reduced(_power_array(e)[roots[seen[1]]], 1)[0]
    want = nums[characters._row_order(nums, e)]
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("e", range(1, 61))
def test_root_keys_are_the_value_keys_of_distinct_values(e):
    # a key depends on the value alone: gathered by exponent, the keys equal
    # those of the distinct values of a gather with repeats, and they sort
    # the roots of unity as `Cyclotomic.sort_key` does
    t = np.random.default_rng(e).integers(0, e, size=3 * e)
    flat = _power_array(e)[t]
    first, at = characters._distinct(flat)
    keys = _root_keys(e)
    assert np.array_equal(keys[t], cyclotomic._value_keys(flat[first], e)[at])
    assert np.lexsort(keys.T[::-1]).tolist() == sorted(
        range(e), key=lambda m: Cyclotomic.zeta(e, m).sort_key())
