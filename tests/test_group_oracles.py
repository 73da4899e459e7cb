"""The group layer against oracles that share none of its code paths.

`oracle_*` below are the pure-Python algorithms the package used before
normal subgroups came from character kernels, permutation groups were closed
on integer arrays and associativity was certified by Light's test: the
class-union closure of normal subgroups, the commutator loop of the derived
subgroup, tuple composition for permutation tables, the exhaustive triple
loop for associativity, and the loops over Python tuples for conjugacy
classes and cosets.
"""

from math import lcm

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from charcond import characters, groups
from charcond.catalog import Catalog
from charcond.errors import NotAGroup
from charcond.groups import (build_from_permutations, build_from_table,
                             conjugacy_classes, derived_subgroup,
                             generated_subgroup, normal_subgroups, quotient)


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


def oracle_classes(table):
    """The conjugacy classes of the group whose multiplication table is
    `table`, a list of tuples, each class sorted: the identity's class
    first, then by size, then by least element."""
    n = len(table)
    e = table[0].index(0)
    inv = [row.index(e) for row in table]
    classes, seen = [], set()
    for x in range(n):
        if x not in seen:
            cls = tuple(sorted({table[table[y][x]][inv[y]] for y in range(n)}))
            seen.update(cls)
            classes.append(cls)
    return sorted(classes, key=lambda c: (e not in c, len(c), c[0]))


def oracle_cosets(table, members):
    """The projection onto G/N, N given by its members: each coset x N,
    found from its least element x, numbered in the order of those."""
    proj = [None] * len(table)
    count = 0
    for x in range(len(table)):
        if proj[x] is None:
            for m in members:
                proj[table[x][m]] = count
            count += 1
    return proj


def assert_classes_and_cosets(g, table):
    """`conjugacy_classes` and `quotient` by every normal subgroup of g
    against the oracles on `table`, g's multiplication table as tuples."""
    part = conjugacy_classes(g)
    classes = oracle_classes(table)
    assert part.classes == tuple(classes)
    assert part.representatives == tuple(c[0] for c in classes)
    class_of = {x: i for i, c in enumerate(classes) for x in c}
    assert part.class_of.tolist() == [class_of[x] for x in range(len(table))]
    for s in normal_subgroups(g):
        # a normal subgroup is a union of classes
        assert sorted(v for c in classes if c[0] in s.elements
                      for v in c) == list(s.elements)
        q, proj = quotient(g, s)
        want = oracle_cosets(table, s.elements)
        assert proj.mapping.tolist() == want
        first = {}
        for x, i in enumerate(want):
            first.setdefault(i, x)
        reps = [first[i] for i in range(q.order)]
        assert q.mul.tolist() == [[want[table[a][b]] for b in reps]
                                  for a in reps]


def oracle_exponent(table):
    """The lcm of the orders of all elements of the group whose
    multiplication table is `table`, a list of tuples, each order found by
    multiplying up to the identity."""
    e = table[0].index(0)
    orders = []
    for g in range(len(table)):
        n, x = 1, g
        while x != e:
            x, n = table[x][g], n + 1
        orders.append(n)
    return lcm(*orders)


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


@pytest.mark.parametrize("name", _CAT.base_names() + ["S3xS3", "Q8xS3"])
def test_catalog_classes_and_cosets_match_the_tuple_loops(name):
    g = _CAT.group(name)
    assert_classes_and_cosets(g, [tuple(row) for row in g.mul.tolist()])


def test_a5_orders_its_two_classes_of_five_cycles_by_least_element():
    g = build_from_permutations(*_PERMUTATION_GROUPS["A5"])
    table = [tuple(row) for row in
             oracle_permutation_group(*_PERMUTATION_GROUPS["A5"])[0].tolist()]
    assert_classes_and_cosets(g, table)
    part = conjugacy_classes(g)
    assert part.sizes == (1, 12, 12, 15, 20)
    assert part.representatives[1] < part.representatives[2]


# groups generated by 1-3 permutations of at most 6 points, up to S6
_PERMUTATIONS = st.integers(1, 6).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.permutations(range(d)), min_size=1, max_size=3)))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_PERMUTATIONS)
def test_permutation_classes_and_cosets_match_the_tuple_loops(group):
    # groups on at most 6 points, up to S6; the table comes from tuple
    # composition, so no kernel of the package builds the oracle's input
    table = [tuple(row)
             for row in oracle_permutation_group(*group)[0].tolist()]
    g = build_from_permutations(*group)
    assert g.mul.tolist() == [list(row) for row in table]
    assert_classes_and_cosets(g, table)


@pytest.mark.parametrize("name", _CAT.base_names() + [
    "S3xS3xS3", "Q8xS3xC4", "C4xC4xC3", "D6xD6"])
def test_catalog_exponents_match_the_orders_of_all_elements(name):
    g = _CAT.group(name)
    assert g.exponent() == oracle_exponent([tuple(r) for r in g.mul.tolist()])


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_PERMUTATIONS)
def test_permutation_exponents_match_the_orders_of_all_elements(group):
    # the exponent is read off class representatives; the oracle walks the
    # powers of every element of the tuple-composition table
    table = [tuple(row)
             for row in oracle_permutation_group(*group)[0].tolist()]
    assert build_from_permutations(*group).exponent() == oracle_exponent(table)


_GENERATED = [build_from_permutations(4, [(1, 0, 2, 3), (1, 2, 3, 0)]),
              build_from_permutations(*_PERMUTATION_GROUPS["S5"]),
              build_from_permutations(*_PERMUTATION_GROUPS["A5"])]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_generated_subgroup_matches_the_worklist_closure(data):
    # S4, S5 and A5 (order 60), with generator lists that repeat, hold the
    # identity, or are empty
    g = data.draw(st.sampled_from(_GENERATED))
    gens = data.draw(st.lists(st.integers(0, g.order - 1), max_size=4))
    assert generated_subgroup(g, gens).elements == oracle_generated(g, gens)


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
        e, inv, gens = groups._validate_table(mul)
        assert e == 0
        assert np.all(mul[np.arange(len(mul)), inv] == 0)
        # Light's set S is greedy and generates the whole table: each s is
        # the least element outside the closure of the ones before it
        assert list(gens) == sorted(gens)
        g = build_from_table(mul)
        for i, s in enumerate(gens):
            closure = set(oracle_generated(g, gens[:i]))
            assert s == min(set(range(len(mul))) - closure)
        assert len(oracle_generated(g, gens)) == len(mul)
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
    nums = characters._dixon_rows(g)
    assert len(nums) == 7
    assert characters.character_table(g).degrees() == (1, 1, 4, 4, 5, 5, 6)
    assert np.array_equal(nums, characters._table_nums(g))
