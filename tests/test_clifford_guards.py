"""The refusals of the Clifford API, and the degree walk's doubling step.

Each guard is pinned by exception type and message, with inputs that fail
two checks at once, so the order of the checks is pinned too: a verified
irreducible first, then a prime index where one is needed, then a normal
subgroup.  The doubling lemma, proved in `construct_large_degree`'s
docstring: for N normal in M with M/N non-abelian and psi in Irr(N), the
largest constituent of Ind psi has degree at least 2 psi(1).
"""

import pytest

from charcond.catalog import Catalog
from charcond.characters import Character, character_table
from charcond.clifford import (NormalChain, classify_irreducible,
                               clifford_decomposition, construct_large_degree,
                               find_extension, find_extensions,
                               inertia_dichotomy, inertia_group,
                               promote_degree, _reindex_subgroup)
from charcond.errors import (BadChain, IndexNotPrime, NotIrreducible,
                            NotNormal)
from charcond.groups import (build_from_permutations, full_subgroup,
                             generated_subgroup, product_chain, subgroup,
                             trivial_subgroup)

_CAT = Catalog()
_IRREDUCIBLE = "operation needs a verified irreducible character"


def _d4():
    """D4 with its rotations C4 (normal, index 2), a reflection's subgroup
    (not normal, index 4) and the trivial subgroup (normal, index 8)."""
    g = _CAT.group("D4")
    rot = next(x for x in range(g.order) if g.element_order(x) == 4)
    refl = next(x for x in range(g.order)
                if g.element_order(x) == 2 and x != g.mul[rot, rot])
    return (g, generated_subgroup(g, [rot]), generated_subgroup(g, [refl]),
            trivial_subgroup(g))


def _s3_transposition():
    """S3 with a transposition's subgroup: index 3, prime, and not normal."""
    s3 = _CAT.group("S3")
    t2 = next(x for x in range(6) if s3.element_order(x) == 2)
    return s3, generated_subgroup(s3, [t2])


def _refused(exc, message, fn, *args):
    with pytest.raises(exc) as info:
        fn(*args)
    assert str(info.value) == message


def test_d4_cases_have_the_indices_and_normality_the_guards_need():
    g, c4, refl, triv = _d4()
    assert (c4.index, refl.index, triv.index) == (2, 4, 8)
    # the reflection's subgroup is not normal: some conjugate leaves it
    assert any(int(g.mul[g.mul[x, refl.elements[1]], g.inv[x]])
               not in refl.elements for x in range(g.order))


def test_clifford_decomposition_guards():
    g, c4, refl, triv = _d4()
    table = character_table(g)
    chi, reducible = table[-1], table[0] + table[1]
    message = "Clifford decomposition needs a normal subgroup"
    _refused(NotIrreducible, _IRREDUCIBLE, clifford_decomposition, reducible, c4)
    _refused(NotIrreducible, _IRREDUCIBLE, clifford_decomposition,
             Character.of(table[0]), c4)
    # neither irreducible nor over a normal subgroup: the first check wins
    _refused(NotIrreducible, _IRREDUCIBLE, clifford_decomposition, reducible, refl)
    _refused(NotNormal, message, clifford_decomposition, chi, refl)
    # a non-prime index is no refusal here
    e, orbit = clifford_decomposition(chi, triv)
    assert e * len(orbit) == chi.degree


def test_promote_degree_guards():
    g, c4, refl, triv = _d4()
    tc = character_table(c4.as_group())
    tr = character_table(refl.as_group())
    message = "promotion needs a normal subgroup"
    _refused(NotIrreducible, _IRREDUCIBLE, promote_degree, tc[0] + tc[1], c4)
    _refused(NotIrreducible, _IRREDUCIBLE, promote_degree, Character.of(tc[0]), c4)
    _refused(NotIrreducible, _IRREDUCIBLE, promote_degree, tr[0] + tr[1], refl)
    _refused(NotNormal, message, promote_degree, tr[1], refl)
    assert promote_degree(character_table(triv.as_group())[0], triv).degree >= 1


def test_classification_guards_check_irreducible_then_prime_then_normal():
    g, c4, refl, triv = _d4()
    table = character_table(g)
    chi, reducible = table[-1], table[0] + table[-1]
    # all three fail
    _refused(NotIrreducible, _IRREDUCIBLE, classify_irreducible, reducible, refl)
    # index 4 and not normal: the index is checked first
    _refused(IndexNotPrime, "index 4 is not prime", classify_irreducible,
             chi, refl)
    # normal, index 8
    _refused(IndexNotPrime, "index 8 is not prime", classify_irreducible,
             chi, triv)
    _refused(NotIrreducible, _IRREDUCIBLE, classify_irreducible,
             Character.of(table[0]), c4)
    # prime index, not normal
    s3, h = _s3_transposition()
    _refused(NotNormal, "classification needs a normal subgroup",
             classify_irreducible, character_table(s3)[0], h)


def test_extension_guards_check_irreducible_then_prime_then_normal():
    g, c4, refl, triv = _d4()
    tr = character_table(refl.as_group())
    tt = character_table(triv.as_group())
    tc = character_table(c4.as_group())
    for fn in (find_extensions, find_extension):
        _refused(NotIrreducible, _IRREDUCIBLE, fn, tr[0] + tr[1], refl)
        _refused(NotIrreducible, _IRREDUCIBLE, fn, Character.of(tc[0]), c4)
        _refused(IndexNotPrime, "index 4 is not prime", fn, tr[0], refl)
        _refused(IndexNotPrime, "index 8 is not prime", fn, tt[0], triv)
    _, h = _s3_transposition()
    for fn in (find_extensions, find_extension):
        _refused(NotNormal, "extensions need a normal subgroup", fn,
                 character_table(h.as_group())[1], h)


def test_inertia_guards():
    g, c4, refl, triv = _d4()
    tr = character_table(refl.as_group())
    tc = character_table(c4.as_group())
    _refused(NotNormal, "inertia groups need a normal subgroup",
             inertia_group, refl, tr[1])
    _refused(NotNormal, "character does not live on the subgroup",
             inertia_group, c4, tr[1])
    # inertia groups take any character on the subgroup, irreducible or not
    assert inertia_group(c4, tc[0] + tc[1]).order in (4, 8)
    _refused(IndexNotPrime, "index 4 is not prime", inertia_dichotomy,
             refl, tr[1])
    _refused(IndexNotPrime, "index 8 is not prime", inertia_dichotomy,
             triv, character_table(triv.as_group())[0])
    _, h = _s3_transposition()
    _refused(NotNormal, "inertia groups need a normal subgroup",
             inertia_dichotomy, h, character_table(h.as_group())[1])
    _refused(NotNormal, "character does not live on the subgroup",
             inertia_dichotomy, c4, tr[1])


def _s3_squared():
    """S3 x S3 with its left factor A = S3 x 1 and right factor B = 1 x S3."""
    s3 = _CAT.group("S3")
    p, chain = product_chain([s3, s3])
    right = subgroup(p, [s3.identity * 6 + b for b in range(6)])
    return p, chain, chain[1], right


def test_normal_chain_refusals():
    p, chain, left, right = _s3_squared()
    triv, whole = chain[0], chain[2]
    _refused(BadChain, "chain needs at least two terms", NormalChain, p, (triv,))
    _refused(BadChain, "chain must start at the trivial subgroup",
             NormalChain, p, (left, whole))
    _refused(BadChain, "chain must end at the whole group",
             NormalChain, p, (triv, whole, left))
    other = build_from_permutations(3, [(1, 0, 2), (1, 2, 0)])
    _refused(BadChain, "chain subgroup lives in the wrong group", NormalChain,
             _CAT.group("S3"), (trivial_subgroup(other), full_subgroup(other)))
    s3, h = _s3_transposition()
    _refused(BadChain, "chain subgroup of order 2 is not normal", NormalChain,
             s3, (trivial_subgroup(s3), h, full_subgroup(s3)))
    _refused(BadChain, "chain is not ascending", NormalChain, p,
             (triv, left, right, whole))
    _refused(BadChain, "chain has a repeated term", NormalChain, p,
             (triv, left, left, whole))
    a3 = generated_subgroup(s3, [x for x in range(6) if s3.element_order(x) == 3])
    _refused(BadChain, "quotient of orders 3/1 is abelian", NormalChain, s3,
             (trivial_subgroup(s3), a3, full_subgroup(s3)))


def test_reindex_refuses_a_subgroup_outside_the_outer_one():
    _, _, left, right = _s3_squared()
    assert _reindex_subgroup(left, left).order == 6
    _refused(BadChain, "inner subgroup is not contained in the outer one",
             _reindex_subgroup, right, left)


_NON_ABELIAN = ["S3", "D4", "Q8", "D5", "S4", "D6"]
_PAIRS = [(a, b) for a in _NON_ABELIAN for b in _NON_ABELIAN
          if _CAT.group(a).order * _CAT.group(b).order <= 216]
# construct_large_degree's recorded degree on each chain: the product of the
# factors' largest degrees (2 for S3, D4, Q8, D5 and D6, 3 for S4)
_WALK_DEGREES = {
    "S3xS3": 4, "S3xD4": 4, "S3xQ8": 4, "S3xD5": 4, "S3xS4": 6, "S3xD6": 4,
    "D4xS3": 4, "D4xD4": 4, "D4xQ8": 4, "D4xD5": 4, "D4xS4": 6, "D4xD6": 4,
    "Q8xS3": 4, "Q8xD4": 4, "Q8xQ8": 4, "Q8xD5": 4, "Q8xS4": 6, "Q8xD6": 4,
    "D5xS3": 4, "D5xD4": 4, "D5xQ8": 4, "D5xD5": 4, "D5xD6": 4,
    "S4xS3": 6, "S4xD4": 6, "S4xQ8": 6,
    "D6xS3": 4, "D6xD4": 4, "D6xQ8": 4, "D6xD5": 4, "D6xD6": 4,
    "S3xS3xS3": 8}


@pytest.mark.parametrize("names", [list(pair) for pair in _PAIRS]
                         + [["S3", "S3", "S3"]], ids="x".join)
def test_every_promotion_step_of_a_product_chain_doubles_the_degree(names):
    p, subs = product_chain([_CAT.group(n) for n in names])
    for m in range(1, len(subs) - 1):
        inner = _reindex_subgroup(subs[m], subs[m + 1])
        # every irreducible of the step's bottom, not only the walk's
        for psi in character_table(inner.as_group()):
            chi = promote_degree(psi, inner)
            assert chi.irreducible and chi.degree >= 2 * psi.degree
    phi = construct_large_degree(NormalChain(p, tuple(subs)))
    assert phi.irreducible and phi.group is p
    assert phi.degree == _WALK_DEGREES["x".join(names)]
    assert phi.degree >= 2 ** (len(subs) - 1)


def test_the_recorded_walks_cover_every_pair_up_to_order_216():
    assert sorted(_WALK_DEGREES) == sorted(["x".join(pair) for pair in _PAIRS]
                                           + ["S3xS3xS3"])
