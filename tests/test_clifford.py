"""Inertia, classification, extendibility, and degree-growth constructions."""

import copy

import numpy as np
import pytest

from charcond import characters, clifford
from charcond.arith import is_prime
from charcond.catalog import Catalog
from charcond.characters import character_table, induce, inner_product, restrict
from charcond.clifford import (ClassificationKind, InertiaKind, NormalChain,
                               classify_irreducible, clifford_decomposition,
                               conjugate_orbit, construct_large_degree,
                               find_extension, find_extensions,
                               inertia_dichotomy, inertia_group,
                               promote_degree)
from charcond.errors import (BadChain, IndexNotPrime, InternalContradiction,
                             NotInvariant, NotIrreducible)
from charcond.groups import (ConjugacyPartition, build_from_permutations,
                             full_subgroup, generated_subgroup,
                             normal_subgroups, product_chain, subgroup,
                             trivial_subgroup)
from charcond.verify import run_suite


def s3():
    return build_from_permutations(3, [(1, 0, 2), (1, 2, 0)], name="S3")


def d4():
    return build_from_permutations(4, [(1, 2, 3, 0), (3, 2, 1, 0)], name="D4")


def a3_of(g):
    return generated_subgroup(g, [2])


def test_inertia_group_basics():
    g = s3()
    a3 = a3_of(g)
    ta3 = character_table(a3.as_group())
    assert inertia_group(a3, ta3[0]).order == 6
    assert inertia_group(a3, ta3[1]).elements == a3.elements
    whole = full_subgroup(g)
    tg = character_table(g)
    for chi in tg:
        assert inertia_group(whole, chi).order == 6


def test_inertia_dichotomy():
    g = s3()
    a3 = a3_of(g)
    ta3 = character_table(a3.as_group())
    assert inertia_dichotomy(a3, ta3[0]) == InertiaKind.WHOLE_GROUP
    assert inertia_dichotomy(a3, ta3[1]) == InertiaKind.SUBGROUP
    with pytest.raises(IndexNotPrime):
        inertia_dichotomy(trivial_subgroup(g), character_table(
            trivial_subgroup(g).as_group())[0])


def test_dichotomy_exhaustive_on_d4():
    g = d4()
    rot = next(x for x in range(8) if g.element_order(x) == 4)
    c4 = generated_subgroup(g, [rot])
    assert c4.order == 4 and c4.index == 2
    kinds = [inertia_dichotomy(c4, theta)
             for theta in character_table(c4.as_group())]
    assert all(k in (InertiaKind.WHOLE_GROUP, InertiaKind.SUBGROUP)
               for k in kinds)
    assert kinds.count(InertiaKind.WHOLE_GROUP) == 2
    assert kinds.count(InertiaKind.SUBGROUP) == 2


def test_clifford_decomposition():
    g = s3()
    a3 = a3_of(g)
    t = character_table(g)
    e, orbit = clifford_decomposition(t[0], a3)
    assert e == 1 and len(orbit) == 1
    e, orbit = clifford_decomposition(t[2], a3)
    assert e == 1 and len(orbit) == 2
    assert orbit[0] != orbit[1]
    # sign restricts to the trivial character of A3: orbit of size one
    e, orbit = clifford_decomposition(t[1], a3)
    assert e == 1 and len(orbit) == 1 and orbit[0].degree == 1
    with pytest.raises(NotIrreducible):
        clifford_decomposition(
            type(t[0])(g, (t[0] + t[1]).values), a3)


def test_clifford_identities_on_d4_over_center():
    g = d4()
    center = generated_subgroup(
        g, [next(x for x in range(1, 8)
                 if g.element_order(x) == 2 and all(
                     g.mul_elem(x, y) == g.mul_elem(y, x) for y in range(8)))])
    assert center.order == 2
    t = character_table(g)
    for chi in t:
        e, orbit = clifford_decomposition(chi, center)
        assert chi.degree == e * len(orbit) * orbit[0].degree
        assert inner_product(restrict(chi, center), restrict(chi, center)) \
            == e * e * len(orbit)


def test_classification_s3():
    g = s3()
    a3 = a3_of(g)
    t = character_table(g)
    results = [classify_irreducible(chi, a3) for chi in t]
    kinds = [r.kind for r in results]
    assert kinds == [ClassificationKind.RESTRICTED,
                     ClassificationKind.RESTRICTED,
                     ClassificationKind.INDUCED]
    for r in results:
        assert r.verified()
        assert r.e == 1
    ind = results[2]
    assert ind.t == 2
    assert induce(ind.theta, a3) == t[2]
    assert len(ind.orbit) == 2


def test_restricted_case_computes_the_norm_once(monkeypatch):
    # the norms of all restrictions come from one pass modulo the Gram
    # primes when the pair builds its arrays, with its three other Gram
    # products; classifying again reads them, and no character's own norm
    # is computed
    g = s3()
    a3 = a3_of(g)
    t = character_table(g)
    norms, passes = [], []
    real_norm, real_pass = characters.norm, clifford._crt

    def counted_norm(fn):
        norms.append(fn.group.order)
        return real_norm(fn)

    def counted_pass(e, bounds, residues):
        passes.append(len(bounds))
        return real_pass(e, bounds, residues)

    monkeypatch.setattr(characters, "norm", counted_norm)
    monkeypatch.setattr(clifford, "_crt", counted_pass)
    for _ in range(2):
        for chi in t[:2]:
            c = classify_irreducible(chi, a3)
            assert c.kind == ClassificationKind.RESTRICTED
            assert c.theta.irreducible and c.verified()
        assert norms == []
        # the norms of the restrictions, the multiplicities, the norms of
        # the inductions and the induced side of Frobenius reciprocity
        assert passes == [4]


def test_classification_requires_prime_index():
    g = s3()
    t = character_table(g)
    with pytest.raises(IndexNotPrime):
        classify_irreducible(t[0], full_subgroup(g))


def test_classification_trivial_character_is_restricted():
    g = d4()
    rot = next(x for x in range(8) if g.element_order(x) == 4)
    c4 = generated_subgroup(g, [rot])
    t = character_table(g)
    c = classify_irreducible(t[0], c4)
    assert c.kind == ClassificationKind.RESTRICTED
    assert c.theta.degree == 1
    # the degree-2 character of D4 is induced from C4
    two = next(chi for chi in t if chi.degree == 2)
    c2 = classify_irreducible(two, c4)
    assert c2.kind == ClassificationKind.INDUCED and c2.t == 2


def test_find_extensions():
    g = s3()
    a3 = a3_of(g)
    ta3 = character_table(a3.as_group())
    t = character_table(g)
    exts = find_extensions(ta3[0], a3)
    assert exts == (t[0], t[1])
    assert find_extension(ta3[0], a3) == t[0]
    with pytest.raises(NotInvariant):
        find_extension(ta3[1], a3)


def test_find_extension_invariant_real_linear_of_c4_in_d4():
    g = d4()
    rot = next(x for x in range(8) if g.element_order(x) == 4)
    c4 = generated_subgroup(g, [rot])
    tc4 = character_table(c4.as_group())
    # brute force over Irr(C4): the unique nontrivial real linear character
    candidates = [theta for theta in tc4
                  if theta != tc4[0]
                  and all(v.is_rational() for v in theta.values)
                  and inertia_group(c4, theta).order == 8]
    assert len(candidates) == 1
    ext = find_extension(candidates[0], c4)
    assert ext.degree == 1
    assert restrict(ext, c4) == candidates[0]


def test_conjugate_orbit():
    g = s3()
    a3 = a3_of(g)
    ta3 = character_table(a3.as_group())
    orbit = conjugate_orbit(a3, ta3[1])
    assert len(orbit) == 2
    assert orbit[0] == ta3[1]
    assert {o.values for o in orbit} == {ta3[1].values, ta3[2].values}


def test_inertia_and_orbit_of_a_reducible_theta_read_no_table(monkeypatch):
    # theta_0 + theta_1 on A3 is moved by S3 and theta_1 + theta_2 is fixed;
    # neither is a table row, and neither call reads a character table, so
    # both work where the subgroup's table is over the caps
    g = s3()
    a3 = a3_of(g)
    ta3 = character_table(a3.as_group())
    moved, fixed = ta3[0] + ta3[1], ta3[1] + ta3[2]

    def forbidden(*args):
        raise AssertionError("a character table was read")

    for mod in (characters, clifford):
        monkeypatch.setattr(mod, "_table_nums", forbidden)
    assert inertia_group(a3, moved).elements == a3.elements
    assert inertia_group(a3, fixed).order == 6
    assert conjugate_orbit(a3, moved) == (moved, ta3[0] + ta3[2])
    assert conjugate_orbit(a3, fixed) == (fixed,)


def test_normal_chain_validation():
    g = s3()
    triv = trivial_subgroup(g)
    whole = full_subgroup(g)
    chain = NormalChain(g, (triv, whole))
    assert chain.length == 1
    with pytest.raises(BadChain):
        NormalChain(g, (triv,))
    with pytest.raises(BadChain):
        NormalChain(g, (triv, a3_of(g), whole))  # abelian quotients
    with pytest.raises(BadChain):
        NormalChain(g, (a3_of(g), whole))  # does not start at 1
    p, chain2 = product_chain([g, g])
    with pytest.raises(BadChain):
        NormalChain(p, (chain2[0], chain2[2], chain2[1]))


def test_construct_large_degree_chains():
    g = s3()
    nc1 = NormalChain(g, (trivial_subgroup(g), full_subgroup(g)))
    phi1 = construct_large_degree(nc1)
    assert phi1.irreducible and phi1.degree >= 2
    assert phi1.degree <= max(character_table(g).degrees()) == 2

    p2, ch2 = product_chain([g, g])
    phi2 = construct_large_degree(NormalChain(p2, tuple(ch2)))
    assert phi2.irreducible and phi2.degree >= 4
    assert phi2.degree <= max(character_table(p2).degrees()) == 4

    p3, ch3 = product_chain([g, g, g])
    phi3 = construct_large_degree(NormalChain(p3, tuple(ch3)))
    assert phi3.irreducible and phi3.degree >= 8
    assert phi3.degree <= max(character_table(p3).degrees()) == 8


def test_the_degree_walk_reads_the_steps_the_chain_reindexed(monkeypatch):
    # NormalChain reindexes each step N_m inside N_(m+1) once, for its
    # quotient check; the walk validates no subgroup again
    g = s3()
    p3, ch3 = product_chain([g, g, g])
    chain = NormalChain(p3, tuple(ch3))
    assert [(s.parent.order, s.order) for s in chain.steps] == [
        (6, 1), (36, 6), (216, 36)]
    calls = []
    real = clifford.subgroup

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(clifford, "subgroup", counted)
    assert construct_large_degree(chain).degree == 8
    assert calls == []


def test_promote_degree():
    g = s3()
    p, chain = product_chain([g, g])
    left = chain[1]
    tl = character_table(left.as_group())
    theta = next(r for r in tl if r.degree == 2)
    chi = promote_degree(theta, left)
    assert chi.irreducible and chi.degree >= 2
    # whole group: promotion returns a character of at least the same degree
    whole = full_subgroup(g)
    t = character_table(g)
    assert promote_degree(t[2], whole).degree >= 2
    # trivial theta: any constituent of the regular-ish induction works
    triv = trivial_subgroup(g)
    ttriv = character_table(triv.as_group())
    assert promote_degree(ttriv[0], triv).degree >= 1


def test_conjugate_orbit_computes_no_inner_products(monkeypatch):
    cat = Catalog()
    cases = [(s, theta) for name in ("S3", "D4", "Q8", "S4", "D6")
             for s in normal_subgroups(cat.group(name))
             for theta in character_table(s.as_group())]

    def forbidden(*args):
        raise AssertionError("conjugation recomputed an inner product")

    monkeypatch.setattr(characters, "inner_product", forbidden)
    monkeypatch.setattr(characters, "inner_product_matrix", forbidden)
    for s, theta in cases:
        orbit = conjugate_orbit(s, theta)
        # every conjugate, by value permutation, and nothing else
        perms = characters._conj_class_perms(s)
        want = {tuple(theta.values[int(c)] for c in p) for p in perms}
        assert {o.values for o in orbit} == want
        assert all(o.irreducible and o.degree == theta.degree for o in orbit)


def test_row_permutations_match_the_conjugated_rows():
    # conjugating a row by g, on the class values, gives the row that the
    # row permutation names; orbits, stabilizers and I = H by brute force
    cat = Catalog()
    for name in ("S4", "D4", "Q8", "D6", "S3xS3"):
        g = cat.group(name)
        for s in normal_subgroups(g):
            table = characters._table_nums(s.as_group())
            perms = characters._conj_class_perms(s)
            conj = clifford._pair(s)
            for x in range(g.order):
                assert np.array_equal(table[conj.perm[x]], table[:, perms[x]])
            for j, row in enumerate(table):
                moved = [row[perms[x]].tobytes() for x in range(g.order)]
                assert ({table[i].tobytes() for i in np.flatnonzero(conj.orbit[j])}
                        == set(moved))
                fixing = [x for x in range(g.order) if moved[x] == row.tobytes()]
                assert conj.stab[j] == len(fixing)
                assert conj.is_h[j] == (tuple(fixing) == s.elements)


def test_conjugation_that_moves_class_sizes_is_refused(monkeypatch):
    g = Catalog().group("D4")
    klein = next(s for s in normal_subgroups(g) if s.order == 4
                 and all(g.element_order(x) <= 2 for x in s.elements))
    fresh = subgroup(g, klein.elements)
    h = fresh.as_group()
    # z is central in G; a rotation swaps the two other involutions u and v
    central = [i for i, x in enumerate(fresh.elements)
               if all(g.mul[x, y] == g.mul[y, x] for y in range(g.order))]
    z = next(i for i in central if i != h.identity)
    u, v = (i for i in range(4) if i not in (h.identity, z))
    # classes {u} and {v, z}: every conjugation still permutes the classes,
    # but the swap sends a class of size 1 onto one of size 2
    classes = ((h.identity,), (u,), (v, z))
    class_of = np.empty(h.order, dtype=np.int64)
    for i, cls in enumerate(classes):
        class_of[list(cls)] = i
    fake = ConjugacyPartition(classes, class_of)
    real = characters.conjugacy_classes
    monkeypatch.setattr(characters, "conjugacy_classes",
                        lambda grp: fake if grp is h else real(grp))
    with pytest.raises(InternalContradiction, match="preserving sizes"):
        characters._conj_class_perms(fresh)


def _outcome(fn, *args):
    """fn(*args), or the message of the InternalContradiction it raised."""
    try:
        return fn(*args)
    except InternalContradiction as exc:
        return f"raised: {exc}"


def _copied(pair, *names):
    """The pair's segment on a copy of its group's arrays, with fresh copies
    of the arrays `names` and no verdict computed yet but the
    multiplicities."""
    pair.mult
    pairs = copy.copy(pair.pairs)
    for name in ("clifford", "checks", "reciprocity"):
        pairs.__dict__.pop(name, None)
    for name in names:
        setattr(pairs, name, getattr(pairs, name).copy())
    return clifford._NormalPair(pairs, pair.i)


def _perturbed(pair, rng):
    """A copy of the pair with one entry of its multiplicities, stabilizers,
    restriction norms, I = H flags or orbits changed at random, in its
    segment of a copy of its group's arrays."""
    name = ("mult", "stab", "res_norm", "is_h", "orbit")[rng.integers(5)]
    fresh = _copied(pair, name)
    # the segment is a view of the copied array
    a = getattr(fresh, name)
    at = tuple(int(rng.integers(n)) for n in a.shape)
    a[at] = ~a[at] if a.dtype == bool else a[at] + int(rng.choice([-2, -1, 1, 2]))
    return fresh


def test_verdict_arrays_match_the_per_row_oracle_on_every_pair_to_order_24(
        monkeypatch):
    # every row of every proper normal pair up to order 24, as built and
    # with one entry of the pair's arrays changed: the same (e, orbit), the
    # same (kind, j, e, orbit, checks) under prime index, or the same error
    from clifford_oracle import oracle_classify_row, oracle_clifford_row
    rng = np.random.default_rng(20261019)
    pairs, rows, raised = 0, 0, set()
    for _, g in Catalog().groups_up_to(24):
        for s in normal_subgroups(g):
            if s.order == g.order:
                continue
            built = clifford._pair(s)
            pairs += 1
            for pair in (built, _perturbed(built, rng), _perturbed(built, rng)):
                monkeypatch.setattr(clifford, "_pair", lambda _s, p=pair: p)
                for r in range(len(pair.tg)):
                    rows += 1
                    where = (g.name, s.order, r)
                    got = _outcome(clifford._clifford_row, s, r)
                    assert got == _outcome(oracle_clifford_row, pair, r), where
                    if is_prime(s.index):
                        got = _outcome(clifford._classify_row, s, r)
                        # the induced-case message shows the checks' reprs
                        assert repr(got) == repr(
                            _outcome(oracle_classify_row, pair, r)), where
                    if isinstance(got, str):
                        raised.add(got.split(" [")[0].split(" {")[0])
            monkeypatch.undo()
    assert pairs == 117 and rows > 1000
    # the changed entries reach every Clifford failure and the induced case
    assert len(raised) == 6, raised


def test_frobenius_divides_exactly_in_int64_and_python_ints():
    # ind_gram = |G| res_gram is read by exact division, so it holds for
    # products of either dtype, and an entry off by 1 (no multiple of |G|)
    # or by |G| (the wrong quotient) fails at its own (i, r)
    g = Catalog().group("S4")
    pair = clifford._pair(next(s for s in normal_subgroups(g) if s.index == 2))
    for dtype in (np.int64, object):
        for off in (0, 1, g.order):
            got = _copied(pair)
            got.pairs.res_gram = pair.pairs.res_gram.astype(dtype)
            got.pairs.ind_gram = pair.pairs.ind_gram.astype(dtype)
            got.pairs.ind_gram[1, 0, 0] += off
            assert got.frobenius().startswith("<Ind t0, x1> = ") == bool(off)


def test_a_failing_row_fails_only_its_own_views_and_the_sweep_records(
        monkeypatch):
    # rows 1 and 2 of S3 over A3 get multiplicities that fail the Clifford
    # checks; row 0 still decomposes and classifies, and the records show
    # the details the per-row checks gave, row by row
    cat = Catalog()
    g = cat.group("S3")
    a3 = next(s for s in normal_subgroups(g) if s.order == 3)
    target = clifford._pair(a3)
    real = clifford._NormalPairs.mult.func

    def patched(self):
        m = real(self)
        if self is target.pairs:
            m = m.copy()
            m[1, :3] = [1, 1, 0]
            m[2, :3] = [0, 2, 1]
        return m

    monkeypatch.setattr(clifford._NormalPairs, "mult", property(patched))
    table = character_table(g)
    e, orbit = clifford_decomposition(table[0], a3)
    assert e == 1 and orbit == (character_table(a3.as_group())[0],)
    assert classify_irreducible(table[0], a3).verified()
    with pytest.raises(InternalContradiction, match="not a single conjugate orbit"):
        clifford_decomposition(table[1], a3)
    with pytest.raises(InternalContradiction, match=r"unequal multiplicities \[1, 2\]"):
        clifford_decomposition(table[2], a3)
    got = [(c.identity, c.passed, c.detail)
           for suite in ("clifford", "gallagher", "dichotomy", "classification",
                         "tables")
           for c in run_suite(suite, cat, 6).checks
           if c.inputs.startswith("G=S3, |H|=3")]
    assert got == [
        ("clifford: Res Ind theta = |I/H| sum of conjugates", True, ""),
        ("clifford: <Ind theta, Ind theta> = |I/H| and degree bookkeeping",
         True, ""),
        ("clifford: Res chi = e * orbit with e-bounds", False,
         "constituents are not a single conjugate orbit"),
        ("gallagher: extensions exist and exhaust Ind theta", True, ""),
        ("dichotomy: I(theta) is G or H under prime index", True, ""),
        ("classification: totality and exclusivity under prime index", False,
         "restriction constituents have unequal multiplicities [1, 2]"),
        ("tables: Frobenius reciprocity", True, "")]
