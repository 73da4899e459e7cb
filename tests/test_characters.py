"""Character tables and the class-function calculus.

Frozen expected values were computed by independent means noted at each test:
degree multisets from the unique solution of sum-of-squares constraints,
linear characters by brute-force homomorphism search over the actual tables,
and classical value sets for the degree-2 row of the order-8 dihedral group.
"""

from fractions import Fraction
from itertools import product

import pytest

from charcond.cyclotomic import Cyclotomic
from charcond.characters import (Character, ClassFunction, character_table,
                                 conjugate_character, decompose, induce,
                                 inflate, inner_product, pointwise_product,
                                 restrict)
from charcond.errors import GroupMismatch, NotACharacter
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


def test_character_table_cap():
    from charcond.errors import TooLarge
    with pytest.raises(TooLarge):
        character_table(s3(), max_order=5)
    g = s3()
    character_table(g)
    with pytest.raises(TooLarge):      # a cached table does not skip the cap
        character_table(g, max_order=5)
    # Dixon's method needs k matrices of k x k: 257 classes are refused
    # before any of them is built
    c257 = build_from_permutations(257, [tuple((i + 1) % 257 for i in range(257))])
    with pytest.raises(TooLarge, match="257 classes exceed the cap of 256"):
        character_table(c257)
