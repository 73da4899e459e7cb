"""Character tables and the class-function calculus.

Frozen expected values were computed by independent means noted at each test:
degree multisets from the unique solution of sum-of-squares constraints,
linear characters by brute-force homomorphism search over the actual tables,
and classical value sets for the degree-2 row of the order-8 dihedral group.
"""

from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from charcond.catalog import Catalog
from charcond.cyclotomic import Cyclotomic
from charcond.characters import (Character, ClassFunction, character_table,
                                 conjugate_character, decompose, induce,
                                 inflate, inner_product, pointwise_product,
                                 restrict)
from charcond.errors import GroupMismatch, NotACharacter, NotIrreducible
from charcond.groups import (build_from_permutations, direct_product,
                             full_subgroup, generated_subgroup,
                             normal_subgroups, quotient, subgroup)


def s3():
    return build_from_permutations(3, [(1, 0, 2), (1, 2, 0)], name="S3")


def c_n(n):
    return build_from_permutations(n, [tuple((i + 1) % n for i in range(n))],
                                   name=f"C{n}")


def d4():
    return build_from_permutations(4, [(1, 2, 3, 0), (3, 2, 1, 0)], name="D4")


def brute_linear_characters(g, exponent):
    """Oracle: all degree-1 characters by exhaustive homomorphism search.

    Tries every assignment of roots of unity of order dividing exp(G) that is
    multiplicative on the full table; feasible for tiny groups only.
    """
    roots = [Cyclotomic.zeta(exponent, k) for k in range(exponent)]
    # determine values from images of all elements directly (order <= 8 here)
    found = []
    n = g.order
    for images in product(range(exponent), repeat=n - 1):
        vals = [Cyclotomic.one()] + [roots[k] for k in images]
        # reorder so vals[identity] = 1
        if g.identity != 0:
            continue
        ok = True
        for a in range(n):
            for b in range(n):
                if vals[g.mul_elem(a, b)] != vals[a] * vals[b]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(tuple(vals))
    return found


def test_c2_table_frozen():
    t = character_table(c_n(2))
    got = [[str(v) for v in row.values] for row in t]
    assert got == [["1", "1"], ["1", "-1"]]


def test_s3_table_frozen():
    # oracle: 3 classes and sum of d^2 = 6 force degrees {1, 1, 2}
    solutions = [(a, b, c) for a in (1, 2) for b in (1, 2) for c in (1, 2)
                 if a * a + b * b + c * c == 6 and a <= b <= c]
    assert solutions == [(1, 1, 2)]
    t = character_table(s3())
    assert t.degrees() == (1, 1, 2)
    got = [[str(v) for v in row.values] for row in t]
    assert got == [["1", "1", "1"], ["1", "1", "-1"], ["2", "-1", "0"]]


def test_s3xs3_table_degrees():
    # degrees of a product are the pairwise products of factor degrees
    want = sorted(a * b for a in (1, 1, 2) for b in (1, 1, 2))
    t = character_table(direct_product(s3(), s3()))
    assert sorted(t.degrees()) == want == [1, 1, 1, 1, 2, 2, 2, 2, 4]


def test_d4_table_against_brute_force():
    g = d4()
    t = character_table(g)
    assert sorted(t.degrees()) == [1, 1, 1, 1, 2]
    linear_oracle = brute_linear_characters(g, 2)
    assert len(linear_oracle) == 4
    reps = t.partition.representatives
    oracle_classed = {tuple(vals[r] for r in reps) for vals in linear_oracle}
    table_linear = {row.values for row in t if row.degree == 1}
    assert table_linear == oracle_classed
    # classical degree-2 row of the order-8 dihedral group
    two = next(row for row in t if row.degree == 2)
    assert sorted(str(v) for v in two.values) == ["-2", "0", "0", "0", "2"]


def test_cyclic_tables_are_roots_of_unity():
    for n in (3, 4, 5, 7):
        g = c_n(n)
        t = character_table(g)
        assert t.degrees() == (1,) * n
        for row in t:
            for v in row.values:
                assert v ** n == 1


def test_inner_products():
    g = s3()
    t = character_table(g)
    one = t[0]
    assert inner_product(one, one) == 1
    # direct classwise sum: (1/6)(4*1 + 1*2 + 0*3) = 1
    two = t[2]
    assert inner_product(two, two) == 1
    reg = ClassFunction(g, [6, 0, 0])
    for row in t:
        assert inner_product(reg, row) == row.degree
    with pytest.raises(GroupMismatch):
        inner_product(one, character_table(c_n(2))[0])


def test_restrict():
    g = s3()
    t = character_table(g)
    # to the whole group: unchanged values
    whole = restrict(t[2], full_subgroup(g))
    assert whole.values == t[2].values
    a3 = generated_subgroup(g, [2])
    res = restrict(t[2], a3)
    ta3 = character_table(a3.as_group())
    # decomposes into both nontrivial linear characters of A3
    parts = decompose(res, ta3)
    assert parts == [(1, 1), (2, 1)]
    assert restrict(t[0], a3).values == ta3[0].values


def test_induce():
    g = s3()
    t = character_table(g)
    a3 = generated_subgroup(g, [2])
    ta3 = character_table(a3.as_group())
    # from the whole group: identity operation
    same = induce(t[1], full_subgroup(g))
    assert same == t[1]
    # a nontrivial linear character of A3 induces the degree-2 irreducible
    ind = induce(ta3[1], a3)
    assert ind == t[2]
    assert ind.at_identity() == a3.index * ta3[1].degree
    # the trivial character of A3 induces trivial + sign
    assert induce(ta3[0], a3) == t[0] + t[1]


def test_conjugate_character():
    g = s3()
    a3 = generated_subgroup(g, [2])
    ta3 = character_table(a3.as_group())
    for h in a3.elements:
        assert conjugate_character(ta3[1], a3, h) == ta3[1]
    flip = next(x for x in range(6) if g.element_order(x) == 2)
    assert conjugate_character(ta3[1], a3, flip) == ta3[2]
    assert conjugate_character(ta3[0], a3, flip) == ta3[0]


def test_inflate():
    g = s3()
    t = character_table(g)
    a3 = generated_subgroup(g, [2])
    q, qmap = quotient(g, a3)
    tq = character_table(q)
    assert inflate(tq[0], qmap) == t[0]
    assert inflate(tq[1], qmap) == t[1]
    # quotient of S3xS3 by the left factor: inflating the degree-2 character
    # gives the irreducible that is constant on the left factor
    p = direct_product(g, g)
    left = subgroup(p, [i * 6 for i in range(6)])
    q2, qmap2 = quotient(p, left)
    tq2 = character_table(q2)
    beta = next(row for row in tq2 if row.degree == 2)
    lifted = inflate(beta, qmap2)
    tp = character_table(p)
    assert any(lifted == row for row in tp)
    for x in left.elements:
        assert lifted(int(x)) == 2


def test_pointwise_product():
    g = s3()
    t = character_table(g)
    assert pointwise_product(t[2], t[0]) == ClassFunction(g, t[2].values)
    assert pointwise_product(t[1], t[1]) == t[0]
    assert pointwise_product(t[2], t[1]).values == t[2].values


def test_decompose():
    g = s3()
    t = character_table(g)
    assert decompose(t[2], t) == [(2, 1)]
    reg = ClassFunction(g, [6, 0, 0])
    assert decompose(reg, t) == [(0, 1), (1, 1), (2, 2)]
    with pytest.raises(NotACharacter):
        decompose(ClassFunction(g, [1, 0, 0]), t)
    with pytest.raises(NotACharacter):
        decompose(t[0] + t[0].scale(Fraction(1, 2)), t)


def test_index_of_finds_rows_of_its_own_group_only():
    cat = Catalog()
    q, d = character_table(cat.group("Q8")), character_table(cat.group("D4"))
    # Q8 and D4 have equal tables, but a row of one is not a row of the other
    assert q.to_json_dict()["rows"] == d.to_json_dict()["rows"]
    assert [q.index_of(row) for row in q] == list(range(len(q)))
    with pytest.raises(GroupMismatch):
        q.index_of(d[1])
    with pytest.raises(NotIrreducible):
        q.index_of(q[1] + q[2])
    with pytest.raises(NotIrreducible):
        q.index_of(q[1].scale(Fraction(1, 2)))


def test_a_table_builds_no_character_until_its_rows_are_read(monkeypatch):
    g = Catalog().group("Q8xC3")
    row = character_table(g)[7]
    reg = ClassFunction(g, [g.order] + [0] * (len(row.nums) - 1))
    built = []
    set_form = ClassFunction._set

    def counted(self, *args):
        built.append(type(self).__name__)
        return set_form(self, *args)
    monkeypatch.setattr(ClassFunction, "_set", counted)
    table = character_table(g)
    degrees = table.degrees()
    table.validate()
    table.render_text()
    table.to_json_dict()
    assert table.index_of(row) == 7
    assert decompose(reg, table) == list(enumerate(degrees))
    assert built == []
    rows = list(table)
    assert list(table) == rows and table[2:4] == tuple(rows[2:4])
    assert [r.degree for r in rows] == list(degrees)
    assert built == ["Character"] * len(table)


def test_character_degree_validation():
    g = s3()
    with pytest.raises(NotACharacter):
        Character(g, [Fraction(1, 2), 0, 0])
    with pytest.raises(NotACharacter):
        Character(g, [2, 2, 2], irreducible=True)


def test_frobenius_reciprocity_exhaustive():
    for g in (s3(), d4(), c_n(6)):
        t = character_table(g)
        for s in normal_subgroups(g):
            if s.order == g.order:
                continue
            th = character_table(s.as_group())
            for theta in th:
                ind = induce(theta, s)
                for chi in t:
                    assert inner_product(ind, chi) == \
                        inner_product(theta, restrict(chi, s))


def test_sum_of_degree_squares():
    for g in (s3(), d4(), c_n(8)):
        t = character_table(g)
        assert sum(d * d for d in t.degrees()) == g.order


def test_table_json_shape():
    t = character_table(s3())
    d = t.to_json_dict()
    assert d["order"] == 6
    assert d["class_sizes"] == [1, 2, 3]
    assert len(d["rows"]) == 3
    assert d["rows"][2]["degree"] == 2
    v = d["rows"][2]["values"][0]
    assert v["conductor"] == 1 and v["coeffs"] == [[2, 1]]


def test_render_text_is_deterministic():
    a = character_table(s3()).render_text()
    b = character_table(
        build_from_permutations(3, [(1, 0, 2), (1, 2, 0)], name="S3")
    ).render_text()
    assert a == b


def test_rendering_builds_each_distinct_value_once(monkeypatch):
    # C6xC6xC6 has 46,656 entries and 6 distinct values, the sixth roots of
    # unity: each format passes those 6 rows to one `values` call
    from charcond import characters
    rows = []
    build = characters.values

    def counted(nums, e, den=1):
        rows.append(len(nums))
        return build(nums, e, den)
    monkeypatch.setattr(characters, "values", counted)
    table = character_table(Catalog().group("C6xC6xC6"))
    table.render_text()
    assert rows == [6]
    table.to_json_dict()
    assert rows == [6, 6]


def test_json_entries_share_no_mutable_object():
    rows = character_table(Catalog().group("C6")).to_json_dict()["rows"]
    cells = [v for row in rows for v in row["values"]]
    objects = [id(x) for v in cells for x in (v, v["coeffs"], *v["coeffs"])]
    assert len(objects) == len(set(objects))
    # the trivial row is 1 on every class: one entry's mutation stays its own
    one, other = rows[0]["values"][:2]
    one["coeffs"][0][0] = 7
    one["coeffs"].append([0, 1])
    assert other == {"conductor": 1, "coeffs": [[1, 1]]}


def test_character_table_cap(monkeypatch):
    from charcond import characters
    from charcond.errors import TooLarge
    g = s3()
    monkeypatch.setattr(characters, "MAX_ORDER", 5)
    with pytest.raises(TooLarge, match="group order 6 exceeds the cap of 5"):
        character_table(g)
    monkeypatch.undo()
    character_table(g)
    monkeypatch.setattr(characters, "MAX_ORDER", 5)
    with pytest.raises(TooLarge):      # a cached table does not skip the cap
        character_table(g)
    monkeypatch.undo()
    # Dixon's splits cost up to k^3 on k x k class matrices: 257 classes
    # are refused before any of them is built
    c257 = build_from_permutations(257, [tuple((i + 1) % 257 for i in range(257))])
    with pytest.raises(TooLarge, match="257 classes exceed the cap of 256"):
        character_table(c257)


def test_table_work_cap_refuses_a_large_exponent_before_dixon(monkeypatch):
    from charcond import characters
    from charcond.errors import TooLarge

    def never(g):
        raise AssertionError("a table builder ran on an over-cap group")

    # C131 is abelian, so the dual-group build is the one that would run
    for name in ("_dixon_rows", "_abelian_rows"):
        monkeypatch.setattr(characters, name, never)
    # C131 has 131 classes, under the class cap, but 131^3 * phi(131) =
    # 131^3 * 130 steps of validation
    with pytest.raises(TooLarge, match="131 classes at exponent 131 need"):
        character_table(c_n(131))
    # C128 is under both caps: 128^3 * phi(128) = 2^27
    monkeypatch.setattr(characters, "_table", lambda g: "admitted")
    assert characters._table_nums(c_n(128)) == "admitted"


def test_table_work_cap_admits_every_catalog_and_benchmark_group():
    import json
    from pathlib import Path
    from charcond.catalog import Catalog
    from charcond.characters import MAX_TABLE_WORK
    from charcond.groups import conjugacy_classes
    expected = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
    digests = json.loads(expected.read_text(encoding="utf-8"))["oneshot"]["digests"]
    cat = Catalog()
    names = set(cat.base_names()) | {"C6xC6xC6"}
    names |= {key.split()[2] for key in digests if "--group" in key}
    for name in sorted(names):
        g = cat.group(name)
        e = g.exponent()
        phi = sum(1 for m in range(1, e + 1) if gcd(m, e) == 1)
        k = len(conjugacy_classes(g))
        # not near the cap either: a tenth of it is measured at about 1 s
        assert k ** 3 * phi <= MAX_TABLE_WORK // 10, name


def _relabelled(g):
    """g read back from a `table` file in which each element x is renamed
    sig[x], so that the identity is the last element, not element 0."""
    import numpy as np
    from charcond.groups import parse_group_text
    n = g.order
    sig = (np.arange(n) + n - 1 - g.identity) % n
    mul = np.empty((n, n), dtype=np.int64)
    mul[np.ix_(sig, sig)] = sig[g.mul]
    text = f"table {n}\n" + "\n".join(" ".join(map(str, row))
                                      for row in mul.tolist())
    return parse_group_text(text, name=f"{g.name}-relabelled"), sig


def _exponent_or_error(chi, filt):
    from charcond.conductor import conductor_exponent
    from charcond.errors import NonIntegralExponent
    try:
        return conductor_exponent(chi, filt)
    except NonIntegralExponent as exc:
        return str(exc)


@pytest.mark.parametrize("name", ["S3", "Q8", "D4"])
def test_identity_is_class_0_when_it_is_not_element_0(name):
    import numpy as np
    from charcond.catalog import Catalog
    from charcond.characters import _table_nums
    from charcond.conductor import RamificationFiltration
    from charcond.groups import conjugacy_classes
    g = Catalog().group(name)
    h, sig = _relabelled(g)
    assert h.identity == sig[g.identity] == g.order - 1
    part_g, part_h = conjugacy_classes(g), conjugacy_classes(h)
    assert part_h.class_of[h.identity] == 0
    # cmap[c] is the class of h holding the image of class c of g
    cmap = part_h.class_of[sig[list(part_g.representatives)]]
    assert cmap[0] == 0 and sorted(cmap.tolist()) == list(range(len(cmap)))
    table_g, table_h = character_table(g), character_table(h)
    assert table_h.degrees() == table_g.degrees()
    assert ({row.tobytes() for row in _table_nums(h)[:, cmap]}
            == {row.tobytes() for row in _table_nums(g)})
    norms_g, norms_h = normal_subgroups(g), normal_subgroups(h)
    assert [s.order for s in norms_h] == [s.order for s in norms_g]
    # each row of g against the row of h with the same values on mapped
    # classes, through filtrations G >= N mapped along sig
    for s in norms_g[1:]:
        filt_g = RamificationFiltration(2, 2, (full_subgroup(g), s))
        filt_h = RamificationFiltration(2, 2, (
            full_subgroup(h), subgroup(h, sorted(sig[list(s.elements)].tolist()))))
        for chi in table_g:
            (psi,) = [psi for psi in table_h
                      if np.array_equal(psi.nums[cmap], chi.nums)]
            assert psi.degree == chi.degree
            assert (_exponent_or_error(psi, filt_h)
                    == _exponent_or_error(chi, filt_g))
