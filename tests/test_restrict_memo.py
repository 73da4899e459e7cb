"""Restriction, induction and inertia groups against oracles written out
without the subgroup's cached data.

`restrict` and `induce` read the restriction gather and the induction counts
kept in the subgroup's cache, and `inertia_group` reads the class
permutations kept there.  Here every catalog group up to order 12 and each
of its normal subgroups is checked, on a first call and on a second one over
the warm cache, against the gather-and-canonicalize restriction, the
induction matmul and the direct stabilizer.
"""

import numpy as np
import pytest

from charcond import characters, clifford
from charcond.catalog import Catalog
from charcond.characters import (ClassFunction, character_table, induce,
                                 restrict)
from charcond.clifford import inertia_group
from charcond.groups import conjugacy_classes, normal_subgroups


def oracle_restrict(chi, s):
    """(e, nums, den) of Res chi: one gather of class values, then the
    canonical stored form on the subgroup."""
    h = s.as_group()
    reps = s.embedding()[list(conjugacy_classes(h).representatives)]
    nums = chi.nums[chi.partition.class_of[reps]]
    return characters._canonical(h.exponent(), chi.e, nums, chi.den)


def oracle_induce(theta, s):
    """(e, nums, den) of Ind theta: the induction counts times the values,
    over |H|, in the canonical stored form on the parent."""
    sums = characters._induction_counts(s).astype(object) @ theta.nums.astype(object)
    return characters._canonical(s.parent.exponent(), theta.e, sums,
                                 theta.den * s.order)


def oracle_inertia(s, theta):
    """The elements g of G with theta(g h g^-1) = theta(h) on every class."""
    perms = characters._conj_class_perms(s)
    return tuple(g for g in range(s.parent.order)
                 if np.array_equal(theta.nums[perms[g]], theta.nums))


def _same_stored_form(fn, want):
    e, nums, den = want
    return fn.e == e and fn.den == den and np.array_equal(fn.nums, nums)


_CAT = Catalog()
_PAIRS = [(name, s) for name, g in _CAT.groups_up_to(12)
          for s in normal_subgroups(g)]


@pytest.mark.parametrize("name, s", _PAIRS,
                         ids=[f"{n}-{s.order}" for n, s in _PAIRS])
def test_memoized_restrict_and_inertia_match_the_oracles(name, s):
    h = s.as_group()
    table_g = character_table(s.parent)
    table_h = character_table(h)
    fns = list(table_g) + [induce(theta, s) for theta in table_h]
    for _ in range(2):
        for fn in fns:
            got = restrict(fn, s)
            assert type(got) is ClassFunction and got.group is h
            assert _same_stored_form(got, oracle_restrict(fn, s))
        for theta in table_h:
            inert = inertia_group(s, theta)
            assert inert.parent is s.parent
            assert inert.elements == oracle_inertia(s, theta)


@pytest.mark.parametrize("name, s", _PAIRS,
                         ids=[f"{n}-{s.order}" for n, s in _PAIRS])
def test_memoized_induce_matches_the_oracle(name, s):
    h = s.as_group()
    rows = list(character_table(h))
    fns = rows + [restrict(chi, s) for chi in character_table(s.parent)]
    for _ in range(2):
        for fn in fns:
            got = induce(fn, s)
            assert type(got) is ClassFunction and got.group is s.parent
            assert _same_stored_form(got, oracle_induce(fn, s))


def test_memo_is_served_from_the_subgroup_cache_and_holds_no_group():
    g = Catalog().group("D6")
    s = next(s for s in normal_subgroups(g) if s.index == 2)
    for chi in character_table(g):
        clifford.clifford_decomposition(chi, s)
    # normal_subgroups hands out fresh subgroups over the same cache, which
    # keeps the pair's table arrays that the Clifford views read
    again = next(t for t in normal_subgroups(g) if t.elements == s.elements)
    assert clifford._pair(again) is clifford._pair(s)
    # the pair is its segment of the arrays of its group's pairs: arrays,
    # integers and dtypes only, the multiplicities read on first use too, so
    # the cache keeps no group alive
    def plain(x):
        if isinstance(x, (list, tuple)):
            return all(map(plain, x))
        if isinstance(x, dict):
            return all(map(plain, x.values()))
        return isinstance(x, (np.ndarray, int, type))

    pair = clifford._pair(s)
    assert "mult" in vars(pair.pairs)
    assert all(map(plain, vars(pair.pairs).values()))
    assert all(plain(x) or x is pair.pairs for x in vars(pair).values())
