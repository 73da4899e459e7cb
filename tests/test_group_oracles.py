"""The group layer against oracles that share none of its code paths.

`oracle_*` below are the pure-Python algorithms the package used before
normal subgroups came from character kernels, permutation groups were closed
on integer arrays and associativity was certified by Light's test: the
class-union closure of normal subgroups, the commutator loop of the derived
subgroup, tuple composition for permutation tables, and the exhaustive triple
loop for associativity.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from charcond import characters, groups
from charcond.catalog import Catalog
from charcond.errors import NotAGroup
from charcond.groups import (build_from_permutations, conjugacy_classes,
                             derived_subgroup, normal_subgroups)


def oracle_generated(g, gens):
    """Sorted elements of the subgroup generated by `gens`, by worklist."""
    seed = {g.identity} | {int(v) for v in gens}
    members = set(seed)
    frontier = list(seed)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(members):
                for c in (int(g.mul[a, b]), int(g.mul[b, a])):
                    if c not in members:
                        members.add(c)
                        nxt.append(c)
            ia = int(g.inv[a])
            if ia not in members:
                members.add(ia)
                nxt.append(ia)
        frontier = nxt
    return tuple(sorted(members))


def oracle_normal_subgroups(g):
    """Normal subgroups as closures of unions of conjugacy classes, sorted by
    order, then elements."""
    part = conjugacy_classes(g)
    triv = (g.identity,)
    found = {triv}
    agenda = [triv]
    while agenda:
        base = agenda.pop()
        for cls in part.classes:
            if cls[0] in set(base):
                continue
            bigger = oracle_generated(g, set(base) | set(cls))
            if bigger not in found:
                found.add(bigger)
                agenda.append(bigger)
    return sorted(found, key=lambda s: (len(s), s))


def oracle_derived(g):
    """The subgroup generated by all commutators a b a^-1 b^-1."""
    comms = set()
    for a in range(g.order):
        ia = int(g.inv[a])
        for b in range(g.order):
            comms.add(int(g.mul[g.mul[a, b], g.mul[ia, g.inv[b]]]))
    return oracle_generated(g, comms)


def oracle_permutation_group(degree, gens):
    """(table, labels) of the breadth-first closure, by tuple composition."""
    def compose(p, q):
        return tuple(p[i] for i in q)

    ident = tuple(range(degree))
    elems, index, frontier = [ident], {ident: 0}, [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(p, tuple(g))
                if q not in index:
                    index[q] = len(elems)
                    elems.append(q)
                    nxt.append(q)
        frontier = nxt
    table = np.array([[index[compose(p, q)] for q in elems] for p in elems],
                     dtype=np.int64)
    return table, tuple(groups._cycle_label(p) for p in elems)


def oracle_associativity_failure(mul):
    """The first (x, y, z) with (x y) z != x (y z), or None."""
    n = len(mul)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if mul[mul[x, y], z] != mul[x, mul[y, z]]:
                    return x, y, z
    return None


_CAT = Catalog()
# catalog products whose oracle closure runs in well under a second
_PRODUCTS = ["S3xS3", "D4xC2", "Q8xC2", "S3xC4", "S4xC2", "D6xC2", "Q8xS3",
             "D12xC2", "D4xS3", "S3xS3xC2", "S4xS3", "C4xC4xC3"]
_PERMUTATION_GROUPS = {
    "S5": (5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]),
    "A5": (5, [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)]),
    "C2wrC3": (6, [(1, 0, 2, 3, 4, 5), (2, 3, 4, 5, 0, 1)]),
}


@pytest.mark.parametrize("name", _CAT.base_names() + _PRODUCTS
                         + list(_PERMUTATION_GROUPS))
def test_normal_and_derived_subgroups_match_the_oracles(name):
    g = (build_from_permutations(*_PERMUTATION_GROUPS[name])
         if name in _PERMUTATION_GROUPS else _CAT.group(name))
    got = [s.elements for s in normal_subgroups(g)]
    assert got == oracle_normal_subgroups(g)
    assert derived_subgroup(g).elements == oracle_derived(g)


def test_s6_derived_subgroup_and_normal_subgroup_count():
    g = build_from_permutations(6, [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)])
    assert derived_subgroup(g).elements == oracle_derived(g)
    assert [s.order for s in normal_subgroups(g)] == [1, 360, 720]


@pytest.mark.parametrize("degree,gens", [
    (1, [(0,)]), (3, [(1, 2, 0)]), (4, [(1, 2, 3, 0), (3, 2, 1, 0)]),
    (11, [tuple(4 * x % 11 for x in range(11))]),
    *_PERMUTATION_GROUPS.values()])
def test_permutation_tables_match_tuple_composition(degree, gens):
    g = build_from_permutations(degree, gens)
    table, labels = oracle_permutation_group(degree, gens)
    assert g.mul.tobytes() == table.tobytes()
    assert g.labels == labels


def test_catalog_permutation_groups_match_tuple_composition():
    for name in _CAT.base_names():
        kind, n = name[0], int(name[1:])
        if kind == "C" and n > 1:
            gens = [tuple((i + 1) % n for i in range(n))]
        elif kind == "D" and n > 2:
            gens = [tuple((i + 1) % n for i in range(n)),
                    tuple((n - i) % n for i in range(n))]
        elif kind == "S" and n > 1:
            gens = [tuple([1, 0] + list(range(2, n)))]
            gens += [tuple(list(range(1, n)) + [0])] if n > 2 else []
        else:
            continue
        table, labels = oracle_permutation_group(n, gens)
        g = _CAT.group(name)
        assert g.mul.tobytes() == table.tobytes(), name
        assert g.labels == labels, name


@st.composite
def loops(draw, max_order=7):
    """Latin squares on 0..n-1 with identity 0 and two-sided inverses: an
    involution pairs each x with its inverse, and the rest is filled by
    backtracking in a drawn order.  Most are not associative."""
    n = draw(st.integers(1, max_order))
    rnd = draw(st.randoms(use_true_random=False))
    rest = list(range(1, n))
    rnd.shuffle(rest)
    inv = {}
    while rest:
        x = rest.pop()
        y = x if not rest or rnd.random() < 0.3 else rest.pop()
        inv[x], inv[y] = y, x
    mul = np.full((n, n), -1, dtype=np.int64)
    mul[0] = mul[:, 0] = np.arange(n)
    for x, y in inv.items():
        mul[x, y] = 0
    cells = [(x, y) for x in range(1, n) for y in range(1, n) if mul[x, y] < 0]

    def fill(i):
        if i == len(cells):
            return True
        x, y = cells[i]
        options = sorted(set(range(1, n)) - set(mul[x]) - set(mul[:, y]))
        rnd.shuffle(options)
        for v in options:
            mul[x, y] = v
            if fill(i + 1):
                return True
        mul[x, y] = -1
        return False

    # an involution with no completing square drops the example
    assume(fill(0))
    return mul


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(loops())
def test_light_test_agrees_with_the_triple_loop(mul):
    want = oracle_associativity_failure(mul)
    if want is None:
        e, inv = groups._validate_table(mul)
        assert e == 0
        assert np.all(mul[np.arange(len(mul)), inv] == 0)
        return
    with pytest.raises(NotAGroup, match="associativity fails") as exc:
        groups._validate_table(mul)
    x, s, y = (int(v) for v in
               str(exc.value).split("(")[1].rstrip(")").split(", "))
    assert mul[mul[x, s], y] != mul[x, mul[s, y]]


def test_validate_table_reports_rows_before_columns_and_the_failing_triple():
    # column 0 and row 2 both repeat a value; every row is checked first
    with pytest.raises(NotAGroup, match=r"^row 2 is not a permutation$"):
        groups._validate_table(np.array([[0, 1, 2], [0, 2, 1], [2, 0, 0]]))
    with pytest.raises(NotAGroup, match=r"^column 1 is not a permutation$"):
        groups._validate_table(np.array([[0, 1, 2], [1, 2, 0], [2, 1, 0]]))
    # a loop of order 5 that is not associative; the triple is (x, s, y)
    loop = np.array([[0, 1, 2, 3, 4],
                     [1, 0, 3, 4, 2],
                     [2, 4, 0, 1, 3],
                     [3, 2, 4, 0, 1],
                     [4, 3, 1, 2, 0]])
    with pytest.raises(NotAGroup,
                       match=r"^associativity fails at \(\d+, 1, \d+\)$"):
        groups._validate_table(loop)


def test_character_table_never_uses_normal_or_derived_subgroups(monkeypatch):
    def forbidden(*args):
        raise AssertionError("character_table reached the subgroup lattice")

    for mod in (groups, characters):
        for fn in ("normal_subgroups", "derived_subgroup",
                   "prime_index_normal_subgroups"):
            if hasattr(mod, fn):
                monkeypatch.setattr(mod, fn, forbidden)
    g = build_from_permutations(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])
    # Dixon's method itself, whatever the shared cache already holds
    assert len(characters._dixon_rows(g)) == 7
    assert characters.character_table(g).degrees() == (1, 1, 4, 4, 5, 5, 6)
