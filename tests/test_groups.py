"""Group construction, validation, and subgroup machinery.

The expected values below come from brute-force permutation composition done
right here in the tests, independent of the package's own closure code.
"""

import gc
import hashlib
import json
import re
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charcond import characters, groups
from charcond.catalog import Catalog
from charcond.errors import InvalidData, NotAGroup, NotNormal, TooLarge
from charcond.groups import (build_from_permutations, build_from_table,
                             conjugacy_classes, derived_subgroup,
                             direct_product, generated_subgroup, is_abelian,
                             is_normal, load_group_file, normal_subgroups,
                             parse_group_text, prime_index_normal_subgroups,
                             product_chain, quotient, subgroup,
                             trivial_subgroup, full_subgroup)
from charcond.verify import run_suite
from conftest import run_fresh


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


def test_the_content_cache_validates_every_table_it_cannot_match(monkeypatch):
    # with constant checksums every table of one order has the same key, so
    # only the byte comparison tells tables apart: a table that is not equal
    # to the cached one is validated, and only an equal one is not
    monkeypatch.setattr(groups, "zlib", SimpleNamespace(crc32=lambda b: 0,
                                                        adler32=lambda b: 0))
    monkeypatch.setattr(groups, "_TABLE_CACHES", weakref.WeakValueDictionary())
    checked = []
    validate = groups._validate_table

    def counted(mul):
        checked.append(len(mul))
        return validate(mul)

    monkeypatch.setattr(groups, "_validate_table", counted)
    c4 = build_from_permutations(4, [(1, 2, 3, 0)])
    klein = build_from_permutations(4, [(1, 0, 3, 2), (2, 3, 0, 1)])
    assert checked == [4, 4]
    assert klein._cache is not c4._cache
    # a non-group of that order keeps its own message while C4 is alive
    bad = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 1]]
    with pytest.raises(NotAGroup) as got:
        build_from_table(bad)
    assert str(got.value) == "row 3 is not a permutation"
    assert checked == [4, 4, 4]
    # an equal table, built another way, takes the axioms of the cached one
    again = build_from_table(c4.mul.copy())
    assert checked == [4, 4, 4]
    assert again._cache is c4._cache and again.inv is c4.inv
    assert (again.identity, again.generators) == (c4.identity, c4.generators)


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


def test_closure_cap(monkeypatch):
    monkeypatch.setattr(groups, "MAX_ORDER", 30)
    with pytest.raises(TooLarge, match="closure exceeded the cap of 30"):
        build_from_permutations(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])


def test_closure_entry_cap(monkeypatch):
    # elements x (degree + 1) entries are capped before each layer is stored
    monkeypatch.setattr(groups, "_CLOSURE_ENTRIES", 100)
    with pytest.raises(TooLarge, match="closure on 20 points exceeded the cap "
                                       "of 100 stored entries"):
        build_from_permutations(20, [tuple((i + 1) % 20 for i in range(20))])


def test_a_wide_group_of_small_order_builds():
    # C2 as 30000 transpositions on 60000 points: 2 elements of 60001 entries
    g = build_from_permutations(60000, [tuple(i ^ 1 for i in range(60000))])
    assert g.order == 2 and g.mul.tolist() == [[0, 1], [1, 0]]
    assert g.labels[1].startswith("(0 1)(2 3)")


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


def _normalized_but_by_the_last_generator():
    """S3xC2xC2 and its subgroup <4>: Light's set S is (1, 2, 4, 8), and only
    its last member, 8, does not normalize <4>."""
    g = Catalog().group("S3xC2xC2")
    h = generated_subgroup(g, [4])
    assert g.generators == (1, 2, 4, 8) and h.elements == (0, 4)
    conj = [sorted(g.mul_elem(g.mul_elem(s, x), int(g.inv[s]))
                   for x in h.elements) for s in g.generators]
    assert conj == [[0, 4]] * 3 + [[0, 12]]
    return g, h


def test_normality_checks_every_generator():
    g, h = _normalized_but_by_the_last_generator()
    assert not is_normal(g, h)


def test_quotient_checks_the_projection_on_every_generator(monkeypatch):
    # with normality forced, the left cosets of <4> give a projection that
    # respects products with the first three members of S but not with 8
    g, h = _normalized_but_by_the_last_generator()
    monkeypatch.setattr(groups, "is_normal", lambda g, s: True)
    with pytest.raises(NotAGroup, match="homomorphism check"):
        quotient(g, h)


def test_product_quotient_is_nonabelian():
    g = s3()
    p = direct_product(g, g)
    assert p.order == 36
    left = subgroup(p, [i * 6 for i in range(6)])
    q, _ = quotient(p, left)
    assert q.order == 6
    assert not is_abelian(q)


def test_direct_products(monkeypatch):
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
    monkeypatch.setattr(groups, "MAX_ORDER", 1000)
    with pytest.raises(TooLarge, match="product order 1296 exceeds the cap of 1000"):
        direct_product(p2, p2)


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


def test_subgroup_verdicts_for_every_kind_of_input():
    g = s3()
    for elems, reason in (([], "cannot be empty"), (set(), "cannot be empty"),
                          ([0, 6], "out of range"), ([-1, 0], "out of range"),
                          ([0, 10 ** 20], "out of range"),
                          ([-(10 ** 20)], "out of range"),
                          ([1, 2], "does not contain the identity")):
        with pytest.raises(NotAGroup, match=reason):
            subgroup(g, elems)
    a3 = generated_subgroup(g, [2]).elements
    for elems in (list(a3), set(a3), reversed(a3), np.array(a3[::-1]),
                  (x for x in a3 + a3)):
        got = subgroup(g, elems).elements
        assert got == a3 and all(type(x) is int for x in got)


@pytest.mark.parametrize("make, what", [(subgroup, "elements"),
                                        (generated_subgroup, "generators")])
def test_subgroups_refuse_floats_and_bools(make, what):
    # as `build_from_table` does: 2.7 is not truncated to the element 2, and
    # True and False are not read as 1 and 0
    c4 = Catalog().group("C4")
    for elems in ([0, 2.7], [2.7], [0, 2.0], [True, False], [0, True],
                  [0, np.float64(2)], [np.bool_(True)], np.array([0.0, 2.0]),
                  np.array([True, False])):
        with pytest.raises(NotAGroup, match=f"subgroup {what} must be integers"):
            make(c4, elems)
    # integers of every kind still name elements
    for elems in ([0, 2], (0, np.int64(2)), np.array([0, 2], dtype=np.uint8)):
        assert make(c4, elems).elements == (0, 2)


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


@pytest.mark.parametrize("text, expected", [
    ("perm \u00b2\ngen 0\n", "'perm <degree>'"),
    ("perm \u0663\ngen 1 2 0\n", "'perm <degree>'"),
    ("table \u00b2\n0 1\n1 0\n", "'table <n>'"),
    ("table \u0662\n0 1\n1 0\n", "'table <n>'"),
])
def test_a_header_size_must_be_ascii_digits(text, expected):
    # '\u00b2' (superscript two) passes str.isdigit but not int(), and
    # '\u0663' (Arabic-Indic three) passes both
    head = text.split("\n")[0]
    with pytest.raises(InvalidData, match=re.escape(
            f"bad header {head!r}; expected {expected}")):
        parse_group_text(text)


def test_table_header_over_the_cap_is_refused_before_any_entry_is_read(
        monkeypatch):
    # the entries are not even integers: only the header was read
    with pytest.raises(TooLarge, match="table order 5041 exceeds the cap"):
        parse_group_text("table 5041\nnot a number\n")
    monkeypatch.setattr(groups, "MAX_ORDER", 2)
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
    """The pure-Python all-pairs loop `subgroup` once ran: the first failure
    message, or None when the set is closed."""
    eset = set(elems)
    for a in elems:
        if int(g.inv[a]) not in eset:
            return f"subgroup not closed under inversion at {a}"
        for b in elems:
            if int(g.mul[a, b]) not in eset:
                return f"subgroup not closed under product at ({a}, {b})"
    return None


def oracle_generator_failure(g, elems):
    """The refusal `subgroup` gives, by pure-Python worklist closures: T is
    greedy from the sorted elements, each the least one outside the closure
    of the ones before it, and the first a in sorted order, with the first t
    of T, such that a t is outside the set is named; None when there is
    none."""
    eset, gens, closure = set(elems), [], {g.identity}
    for s in elems:
        if s in closure:
            continue
        gens.append(s)
        closure, work = {g.identity}, [g.identity]
        while work:
            a = work.pop()
            for t in gens:
                c = int(g.mul[a, t])
                if c not in closure:
                    closure.add(c)
                    work.append(c)
    for a in elems:
        for t in gens:
            if int(g.mul[a, t]) not in eset:
                return f"subgroup not closed under product at ({a}, {t})"
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
    # the all-pairs loop decides the verdict, the generator oracle the text
    want = oracle_generator_failure(g, elems)
    assert (want is None) == (oracle_closure_failure(g, elems) is None)
    if want is None:
        assert subgroup(g, elems).elements == tuple(elems)
    else:
        with pytest.raises(NotAGroup) as exc:
            subgroup(g, elems)
        assert str(exc.value) == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1),
                max_size=40),
       st.sampled_from([(-1,), (2, -1)]))
def test_unique_sorted_matches_np_unique(values, shape):
    # plain np.unique is the reference; the helper must agree exactly,
    # dtype included, on flat and 2-d input
    if shape == (2, -1):
        values = values[:len(values) // 2 * 2]
    arr = np.array(values, dtype=np.int64).reshape(shape)
    got = groups.unique_sorted(arr)
    want = np.unique(arr)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


# sha256 of the labels of every base group and S3xS3xS3, of every proper
# normal subgroup's `as_group()` and of every prime-index quotient of the
# catalog up to order 24, recorded while every label was formatted when its
# group was built
_LABEL_DIGEST = (
    "774363287ae5cbcbe9a611288e8cf6ef65810367d0949b1ae78d795bb81dbf0b")


def test_labels_formatted_on_first_read_match_their_recorded_digest():
    cat = Catalog()
    lines = [f"{name} {cat.group(name).labels}"
             for name in cat.base_names() + ["S3xS3xS3"]]
    for name, g in cat.groups_up_to(24):
        for s in normal_subgroups(g):
            if s.order < g.order:
                lines.append(f"{name} {s.elements} {s.as_group().labels}")
        for s in prime_index_normal_subgroups(g):
            lines.append(f"{name}/{s.elements} {quotient(g, s)[0].labels}")
    assert len(lines) == 220
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == _LABEL_DIGEST


def test_a_sweep_formats_no_label(monkeypatch):
    # no check reads a label, so none is formatted: not for the catalog's
    # permutation groups, their products, subgroups or quotients
    calls = []
    label = groups._cycle_label
    monkeypatch.setattr(groups, "_cycle_label",
                        lambda p: calls.append(p) or label(p))
    assert run_suite("all", cat=Catalog(), max_order=24).passed
    assert calls == []
    # a product's labels format each factor's once, when they are read
    assert len(Catalog().group("S3xC2").labels) == 12
    assert len(calls) == 6 + 2


def test_unread_labels_keep_no_group_alive():
    # the functions that format labels on first read hold their sources'
    # arrays and label functions, never a group or a subgroup
    g = direct_product(Catalog().group("S3"), Catalog().group("C4"))
    s = normal_subgroups(g)[2]
    formats = [g._labels, s.as_group()._labels, quotient(g, s)[0]._labels]
    assert all(callable(f) for f in formats)
    order, dead = s.order, weakref.ref(g)
    del g, s
    gc.collect()
    assert dead() is None
    assert [len(f()) for f in formats] == [24, order, 24 // order]


_LARGE_END = """
import json, sys, tracemalloc
from time import perf_counter
import numpy as np
from charcond.characters import _induction_counts
from charcond.groups import (conjugacy_classes, generated_subgroup,
                             load_group_file, quotient, subgroup)
g = load_group_file(sys.argv[1])
# the squares generate A7; checked as a subgroup, it carries its generators
a7 = subgroup(g, generated_subgroup(g, np.diag(g.mul)).elements)
a7.as_group()
calls = {"classes": lambda: len(conjugacy_classes(g)),
         "quotient": lambda: quotient(g, a7)[0].order,
         "induction": lambda: _induction_counts(a7).shape}
out = {}
tracemalloc.start()
for name, call in calls.items():
    tracemalloc.reset_peak()
    t = perf_counter()
    got = call()
    out[name] = [got, perf_counter() - t, tracemalloc.get_traced_memory()[1]]
print(json.dumps(out))
"""


@pytest.mark.slow
def test_s7_classes_cosets_and_induction_counts_stay_small(tmp_path):
    # measured 0.4, 0.6 and 3.2 MB traced peaks; the gather of every x t
    # for t in A7, which the cosets avoid, alone needs 100 MB
    s7 = tmp_path / "s7.grp"
    s7.write_text("perm 7\ngen 1 0 2 3 4 5 6\ngen 1 2 3 4 5 6 0\n")
    run = run_fresh(_LARGE_END, args=[str(s7)])
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert [out[k][0] for k in out] == [15, 2, [15, 9]]
    for name, (_, seconds, peak) in out.items():
        assert peak < 16 << 20 and seconds < 1.0, (name, seconds, peak)
