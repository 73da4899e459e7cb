"""Group construction, validation, and subgroup machinery.

The expected values below come from brute-force permutation composition done
right here in the tests, independent of the package's own closure code.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charcond import groups
from charcond.errors import InvalidData, NotAGroup, NotNormal, TooLarge
from charcond.groups import (build_from_permutations, build_from_table,
                             conjugacy_classes, derived_subgroup,
                             direct_product, generated_subgroup, is_abelian,
                             is_normal, load_group_file, normal_subgroups,
                             parse_group_text, prime_index_normal_subgroups,
                             product_chain, quotient, subgroup,
                             trivial_subgroup, full_subgroup)


def compose(p, q):
    return tuple(p[i] for i in q)


def brute_closure(degree, gens):
    """Oracle: plain worklist closure over tuples."""
    elems = {tuple(range(degree))}
    frontier = list(elems)
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q not in elems:
                    elems.add(q)
                    new.append(q)
        frontier = new
    return elems


S3_GENS = [(1, 0, 2), (1, 2, 0)]
S3_ELEMS = sorted(brute_closure(3, S3_GENS))


def s3():
    return build_from_permutations(3, S3_GENS, name="S3")


def test_trivial_and_z2_tables():
    t = build_from_table([[0]])
    assert t.order == 1 and t.identity == 0
    z2 = build_from_table([[0, 1], [1, 0]])
    assert z2.order == 2 and z2.inv[1] == 1


def test_s3_from_oracle_table():
    # build the 6x6 table straight from the brute-forced permutations
    index = {p: i for i, p in enumerate(S3_ELEMS)}
    table = [[index[compose(p, q)] for q in S3_ELEMS] for p in S3_ELEMS]
    g = build_from_table(table)
    assert g.order == 6
    assert not is_abelian(g)


def test_build_from_table_rejects_bad_input():
    with pytest.raises(NotAGroup):
        build_from_table([[0, 1], [1, 1]])
    with pytest.raises(NotAGroup):
        build_from_table([[0, 1, 2], [1, 2, 0]])
    # a quasigroup without associativity: rows/columns are permutations
    t = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]
    with pytest.raises(NotAGroup, match="associativity|identity"):
        build_from_table(t)


def test_permutation_closure_counts():
    c3 = build_from_permutations(3, [(1, 2, 0)])
    assert c3.order == 3
    assert len(brute_closure(3, [(1, 2, 0)])) == 3
    g = s3()
    assert g.order == len(S3_ELEMS) == 6
    assert not is_abelian(g)
    # multiplication by 4 on Z/11 has multiplicative order 5: the closure is
    # the cyclic group of order 5 acting on 11 points (the Galois action of
    # the real quintic subfield of the 11th cyclotomic field)
    mul4 = tuple(4 * x % 11 for x in range(11))
    five = build_from_permutations(11, [mul4])
    assert five.order == len(brute_closure(11, [mul4])) == 5
    assert is_abelian(five)


def test_permutation_identity_is_element_zero():
    g = s3()
    assert g.identity == 0
    assert g.labels[0] == "e"


def test_closure_cap():
    with pytest.raises(TooLarge):
        build_from_permutations(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)],
                                max_order=30)


def test_bad_generator_rejected():
    with pytest.raises(NotAGroup):
        build_from_permutations(3, [(0, 0, 1)])


def test_conjugacy_classes_canonical():
    g = s3()
    part = conjugacy_classes(g)
    assert part.sizes == (1, 2, 3)
    assert part.classes[0] == (0,)
    assert sum(part.sizes) == 6
    # oracle: conjugation orbits computed on raw permutations
    sizes = sorted(len(orbit) for orbit in _oracle_orbits())
    assert sizes == [1, 2, 3]


def _oracle_orbits():
    elems = list(brute_closure(3, S3_GENS))
    inv = {p: next(q for q in elems if compose(p, q) == (0, 1, 2))
           for p in elems}
    seen = set()
    orbits = []
    for x in elems:
        if x in seen:
            continue
        orbit = {compose(compose(gp, x), inv[gp]) for gp in elems}
        seen |= orbit
        orbits.append(orbit)
    return orbits


def test_abelian_groups_have_singleton_classes():
    c5 = build_from_permutations(5, [(1, 2, 3, 4, 0)])
    assert conjugacy_classes(c5).sizes == (1,) * 5


def test_normality():
    g = s3()
    a3 = generated_subgroup(g, [2])
    assert a3.order == 3
    assert is_normal(g, a3)
    flip = generated_subgroup(g, [1])
    assert flip.order == 2
    assert not is_normal(g, flip)
    c5 = build_from_permutations(5, [(1, 2, 3, 4, 0)])
    for n in normal_subgroups(c5):
        assert is_normal(c5, n)
    assert len(normal_subgroups(c5)) == 2


def test_normality_is_memoized(monkeypatch):
    g = s3()
    a3 = generated_subgroup(g, [2])
    flip = generated_subgroup(g, [1])
    assert is_normal(g, a3) and not is_normal(g, flip)

    def no_conjugation(*args):
        raise AssertionError("conjugation recomputed")

    for s in (a3, flip):
        monkeypatch.setattr(s, "embedding", no_conjugation)
        monkeypatch.setattr(s, "member_index", no_conjugation)
    assert is_normal(g, a3) and not is_normal(g, flip)
    # normal_subgroups hands out fresh subgroups that share the verdict
    for n in normal_subgroups(g):
        assert is_normal(g, n)
    with pytest.raises(NotNormal):
        is_normal(s3(), a3)


def test_quotients():
    g = s3()
    q, proj = quotient(g, full_subgroup(g))
    assert q.order == 1
    a3 = generated_subgroup(g, [2])
    q2, proj2 = quotient(g, a3)
    assert q2.order == 2
    for a in range(6):
        for b in range(6):
            assert proj2(g.mul_elem(a, b)) == q2.mul_elem(proj2(a), proj2(b))
    with pytest.raises(NotNormal):
        quotient(g, generated_subgroup(g, [1]))


def test_product_quotient_is_nonabelian():
    g = s3()
    p = direct_product(g, g)
    assert p.order == 36
    left = subgroup(p, [i * 6 for i in range(6)])
    q, _ = quotient(p, left)
    assert q.order == 6
    assert not is_abelian(q)


def test_direct_products():
    g = s3()
    one = build_from_table([[0]])
    p = direct_product(one, g)
    assert p.order == 6 and not is_abelian(p)
    p2 = direct_product(g, g)
    assert p2.order == 36
    p3, chain = product_chain([g, g, g])
    assert p3.order == 216
    assert [c.order for c in chain] == [1, 6, 36, 216]
    for c in chain:
        assert is_normal(p3, c)
    with pytest.raises(TooLarge):
        direct_product(p2, p2, max_order=1000)


def test_derived_subgroup_of_s3_is_a3():
    g = s3()
    d = derived_subgroup(g)
    assert d.order == 3
    assert d.elements == generated_subgroup(g, [2]).elements


def test_prime_index_normal_subgroups():
    g = s3()
    subs = prime_index_normal_subgroups(g)
    assert [(s.order, s.index) for s in subs] == [(3, 2)]
    c4 = build_from_permutations(4, [(1, 2, 3, 0)])
    assert sorted(s.index for s in prime_index_normal_subgroups(c4)) == [2]


def test_subgroup_validation():
    g = s3()
    with pytest.raises(NotAGroup):
        subgroup(g, [0, 1, 2])  # flip and 3-cycle generate everything
    s = subgroup(g, range(6))
    assert s.order == 6
    assert trivial_subgroup(g).order == 1


def test_subgroup_as_group_preserves_structure():
    g = s3()
    a3 = generated_subgroup(g, [2])
    k = a3.as_group()
    assert k.order == 3
    emb = a3.embedding()
    for i in range(3):
        for j in range(3):
            assert emb[k.mul_elem(i, j)] == g.mul_elem(int(emb[i]), int(emb[j]))


def test_group_file_parsing(tmp_path):
    text = """
    # symmetric group on three points
    perm 3
    gen 1 0 2
    gen 1 2 0
    """
    g = parse_group_text(text)
    assert g.order == 6
    path = tmp_path / "z2.grp"
    path.write_text("table 2\n0 1\n1 0\n")
    g2 = load_group_file(path)
    assert g2.order == 2
    with pytest.raises(InvalidData):
        parse_group_text("perm x\ngen 0")
    with pytest.raises(InvalidData):
        parse_group_text("")
    with pytest.raises(InvalidData):
        parse_group_text("table 2\n0 1\n")
    with pytest.raises(InvalidData):
        parse_group_text("lattice 3\n")


def test_table_header_over_the_cap_is_refused_before_any_entry_is_read(
        monkeypatch):
    # the entries are not even integers: only the header was read
    with pytest.raises(TooLarge, match="table order 5041 exceeds the cap"):
        parse_group_text("table 5041\nnot a number\n")
    monkeypatch.setattr(groups, "DEFAULT_MAX_ORDER", 2)
    with pytest.raises(TooLarge, match="table order 3 exceeds the cap of 2"):
        build_from_table([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    monkeypatch.undo()
    z3 = parse_group_text("table 3\n0 1 2\n1 2 0\n2 0 1\n")
    assert z3.order == 3 and z3.mul.tobytes() == np.array(
        [[0, 1, 2], [1, 2, 0], [2, 0, 1]], dtype=np.int64).tobytes()
    with pytest.raises(NotAGroup, match="integers in 0..1"):
        parse_group_text("table 2\n0 1\n1 99999999999999999999\n")


def test_lattice_needs_a_character_table_within_the_class_cap():
    # normal and derived subgroups are read off the character table, so a
    # group with more classes than a table may have is refused, not answered
    c257 = build_from_permutations(
        257, [tuple((i + 1) % 257 for i in range(257))])
    for lattice in (derived_subgroup, normal_subgroups):
        with pytest.raises(TooLarge, match="257 classes exceed the cap of 256"):
            lattice(c257)


def test_table_rows_and_inverses_are_permutations():
    for g in (s3(), build_from_permutations(4, [(1, 2, 3, 0)])):
        n = g.order
        want = np.arange(n)
        for a in range(n):
            assert np.array_equal(np.sort(np.asarray(g.mul[a])), want)
            assert np.array_equal(np.sort(np.asarray(g.mul[:, a])), want)
        assert np.array_equal(g.inv[g.inv], want)


def test_exponent_and_element_orders():
    g = s3()
    assert g.exponent() == 6
    orders = sorted(g.element_order(x) for x in range(6))
    assert orders == [1, 2, 2, 2, 3, 3]


def oracle_closure_failure(g, elems):
    """The pure-Python loop `subgroup` ran before its numpy check: the first
    failure message, or None when the set is closed."""
    eset = set(elems)
    for a in elems:
        if int(g.inv[a]) not in eset:
            return f"subgroup not closed under inversion at {a}"
        for b in elems:
            if int(g.mul[a, b]) not in eset:
                return f"subgroup not closed under product at ({a}, {b})"
    return None


_CLOSURE_GROUPS = [s3(), build_from_permutations(4, [(1, 2, 3, 0), (3, 2, 1, 0)]),
                   build_from_permutations(4, [(1, 2, 3, 0), (1, 0, 2, 3)]),
                   build_from_permutations(5, [(1, 2, 3, 4, 0)])]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_subgroup_closure_matches_the_loop_oracle(data):
    g = data.draw(st.sampled_from(_CLOSURE_GROUPS))
    elem = st.integers(0, g.order - 1)
    # a generated subgroup with a few elements added and removed, so that
    # closed sets, missing inverses and missing products all occur
    gens = data.draw(st.lists(elem, max_size=2))
    base = set(generated_subgroup(g, gens).elements)
    base |= data.draw(st.sets(elem, max_size=3))
    base -= data.draw(st.sets(elem, max_size=2)) - {g.identity}
    elems = sorted(base)
    want = oracle_closure_failure(g, elems)
    block = data.draw(st.sampled_from([1, 7, groups._CLOSURE_BLOCK]))
    saved, groups._CLOSURE_BLOCK = groups._CLOSURE_BLOCK, block
    try:
        if want is None:
            assert subgroup(g, elems).elements == tuple(elems)
        else:
            with pytest.raises(NotAGroup) as exc:
                subgroup(g, elems)
            assert str(exc.value) == want
    finally:
        groups._CLOSURE_BLOCK = saved
