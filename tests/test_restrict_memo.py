"""Memoized restriction, induction and inertia groups against uncached
oracles.

`restrict` and `induce` keep their results in the subgroup's cache, and
`inertia_group` reads the class permutations kept there.  Here every catalog
group up to order 12 and each of its normal subgroups is checked, on the
first (computing) call and on a second (memoized) one, against the
gather-and-canonicalize restriction, the induction matmul and the direct
stabilizer, all written out below without the memo.
"""

import numpy as np
import pytest

from charcond import characters, clifford
from charcond.catalog import Catalog
from charcond.characters import (ClassFunction, character_table, induce,
                                 restrict)
from charcond.clifford import inertia_group
from charcond.groups import (FiniteGroup, Subgroup, conjugacy_classes,
                             normal_subgroups)


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


def test_memo_confirms_a_hit_exactly_when_hashes_collide(monkeypatch):
    # with every stored form under one hash, only the exact comparison of
    # e, den and the array tells the memo entries apart
    monkeypatch.setattr(ClassFunction, "__hash__", lambda self: 0)
    cat = Catalog()
    for name in ("S4", "Q8", "D6", "C3xS3"):
        g = cat.group(name)
        for s in normal_subgroups(g):
            table_h = character_table(s.as_group())
            fns = list(character_table(g)) + [induce(t, s) for t in table_h]
            for fn in fns + fns:
                assert _same_stored_form(restrict(fn, s),
                                         oracle_restrict(fn, s))
            for theta in list(table_h) * 2:
                assert _same_stored_form(induce(theta, s),
                                         oracle_induce(theta, s))
            for theta in list(table_h) * 2:
                assert inertia_group(s, theta).elements == oracle_inertia(
                    s, theta)


def test_memo_is_served_from_the_subgroup_cache_and_holds_no_group(monkeypatch):
    g = Catalog().group("D6")
    s = next(s for s in normal_subgroups(g) if s.index == 2)
    computed, inductions = [], []
    real, real_induced = characters._restricted, characters._induced

    def counted(chi, sub):
        computed.append(chi)
        return real(chi, sub)

    def counted_induced(theta, sub):
        inductions.append(theta)
        return real_induced(theta, sub)

    monkeypatch.setattr(characters, "_restricted", counted)
    monkeypatch.setattr(characters, "_induced", counted_induced)
    for _ in range(3):
        for chi in character_table(g):
            restrict(chi, s)
            clifford.clifford_decomposition(chi, s)
        for theta in character_table(s.as_group()):
            inertia_group(s, theta)
            induce(theta, s)
    assert len(computed) == len(character_table(g))
    assert len(inductions) == len(character_table(s.as_group()))
    # normal_subgroups hands out fresh subgroups over the same cache
    again = next(t for t in normal_subgroups(g) if t.elements == s.elements)
    restrict(character_table(g)[0], again)
    assert len(computed) == len(character_table(g))
    # entries are arrays and integers only
    for key in ("restrict", "induce"):
        for entry in s._cache[key].values():
            flat = list(entry[:3]) + list(entry[3])
            assert not any(isinstance(x, (FiniteGroup, Subgroup, ClassFunction))
                           for x in flat)
    # so are the pair's table arrays, which the Clifford views read
    for cls in (clifford._NormalPair, clifford._Conjugation):
        fields = vars(s._cache[cls.__name__]).values()
        assert fields and all(isinstance(x, (np.ndarray, int)) for x in fields)


def test_memo_stays_bounded_and_exact_when_full(monkeypatch):
    # a long-lived process may restrict ever new functions to one subgroup
    monkeypatch.setattr(characters, "_MEMO_ENTRIES", 4)
    g = Catalog().group("S4")
    s = next(s for s in normal_subgroups(g) if s.order == 12)
    rows = list(character_table(g))
    fns = [rows[0].scale(m) + rows[-1] for m in range(1, 11)]
    for fn in fns + fns:
        assert _same_stored_form(restrict(fn, s), oracle_restrict(fn, s))
        assert len(s._cache["restrict"]) <= 4
