"""Inertia, classification, extendibility, and degree-growth constructions."""

import pytest

from charcond import characters, clifford
from charcond.characters import character_table, induce, inner_product, restrict
from charcond.clifford import (ClassificationKind, InertiaKind, NormalChain,
                               classify_irreducible, clifford_decomposition,
                               conjugate_orbit, construct_large_degree,
                               find_extension, find_extensions,
                               inertia_dichotomy, inertia_group,
                               promote_degree)
from charcond.errors import (BadChain, IndexNotPrime, NotInvariant,
                             NotIrreducible)
from charcond.groups import (build_from_permutations, full_subgroup,
                             generated_subgroup, product_chain,
                             trivial_subgroup)


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
    g = s3()
    a3 = a3_of(g)
    t = character_table(g)
    calls = []
    real = characters.inner_product

    def counted(phi, psi):
        calls.append(phi.group.order)
        return real(phi, psi)

    monkeypatch.setattr(characters, "inner_product", counted)
    monkeypatch.setattr(clifford, "inner_product", counted)
    for chi in t[:2]:
        calls.clear()
        c = classify_irreducible(chi, a3)
        assert c.kind == ClassificationKind.RESTRICTED
        assert c.theta.irreducible and c.verified()
        assert calls == [3]


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
