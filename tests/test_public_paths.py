"""Public methods and refusals that no other test runs.

A line trace of the rest of the suite never reaches these: the dunder
methods of conductor ideals, radical values and cyclotomics, the repr of a
class function, the different-group refusals of the class-function
operations and of the conductor functions, the identity and inverse checks
of a multiplication table, and a subgroup's own membership and equality.
"""

from fractions import Fraction

import numpy as np
import pytest

from charcond.catalog import Catalog
from charcond.characters import (character_table, conjugate_character,
                                 decompose, induce, inflate,
                                 pointwise_product, restrict)
from charcond.conductor import (FactoredConductor, GaloisContext,
                                RadicalValue, RamificationFiltration,
                                conductor_exponent, conductors,
                                verify_conductor_discriminant)
from charcond.cyclotomic import Cyclotomic
from charcond.errors import GroupMismatch, NotACharacter, NotAGroup
from charcond.groups import (FiniteGroup, build_from_permutations,
                             full_subgroup, generated_subgroup, quotient,
                             subgroup)

_CAT = Catalog()


def _refused(exc, message, fn, *args):
    with pytest.raises(exc) as info:
        fn(*args)
    assert str(info.value) == message


def test_factored_conductor_compares_hashes_and_prints_its_entries():
    f = FactoredConductor([(5, 1, 5), (2, 3, 2), (3, 0, 3)])
    same = FactoredConductor([(2, 3, 2), (5, 1, 5)])
    assert f == same and hash(f) == hash(same) and len({f, same}) == 1
    assert f != FactoredConductor([(2, 3, 2)])
    assert f.__eq__(5) is NotImplemented and f != 5
    assert str(f) == "2^3 * 5"
    assert repr(f) == "FactoredConductor(2^3 * 5)"
    assert str(FactoredConductor([])) == "(1)"
    assert repr(FactoredConductor([(7, 0, 7)])) == "FactoredConductor((1))"


def test_radical_value_hashes_and_prints_its_factors():
    r = RadicalValue({12: Fraction(1, 2)})
    assert r == RadicalValue({2: 1, 3: Fraction(1, 2)})
    assert hash(r) == hash(RadicalValue({3: Fraction(1, 2), 4: Fraction(1, 2)}))
    assert repr(r) == "RadicalValue(2 * 3^(1/2))"
    assert repr(RadicalValue.one()) == "RadicalValue(1)"


def test_cyclotomic_subtraction_from_a_rational_and_truth():
    i = Cyclotomic.zeta(4)
    assert 1 - i == Cyclotomic.one() + (-i)
    assert Fraction(1, 2) - i == -(i - Fraction(1, 2))
    assert 0 - i == -i
    with pytest.raises(TypeError):
        "a" - i
    assert not Cyclotomic.zero() and not (i - i)
    assert i and Cyclotomic.from_rational(Fraction(-1, 3))


def test_class_functions_and_characters_print_their_own_type():
    # S3's classes: the identity, the 3-cycles, the transpositions
    t = character_table(_CAT.group("S3"))
    assert [repr(row) for row in t] == [
        "Character[1, 1, 1]", "Character[1, 1, -1]", "Character[2, -1, 0]"]
    assert repr(t[0] + t[1]) == "ClassFunction[2, 2, 0]"


def test_class_function_operations_refuse_other_groups():
    s3, d4 = _CAT.group("S3"), _CAT.group("D4")
    t3, t4 = character_table(s3), character_table(d4)
    a3 = generated_subgroup(s3, [x for x in range(6) if s3.element_order(x) == 3])
    q, qmap = quotient(s3, a3)
    _refused(GroupMismatch, "class function does not live on the parent group",
             restrict, t4[1], a3)
    _refused(GroupMismatch, "class function does not live on the subgroup",
             induce, t3[1], a3)
    _refused(GroupMismatch, "class function does not live on the quotient group",
             inflate, t3[1], qmap)
    _refused(GroupMismatch, "cannot multiply class functions on different groups",
             pointwise_product, t3[1], t4[1])
    _refused(GroupMismatch, "class function does not live on the subgroup",
             conjugate_character, t3[1], a3, 1)
    _refused(GroupMismatch, "class function does not live on the table's group",
             decompose, t4[1], t3)


def test_tables_without_a_two_sided_identity_or_inverses_are_refused():
    # a Latin square whose column 0 puts the identity at 0, while row 0 is
    # not the identity row
    _refused(NotAGroup, "no two-sided identity", FiniteGroup,
             np.array([[0, 2, 1], [2, 1, 0], [1, 0, 2]]))
    # a loop of order 5 with identity 0 where 2 * 3 = 0 but 3 * 2 = 1
    loop = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1],
                     [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]])
    _refused(NotAGroup, "inverses are not two-sided", FiniteGroup, loop)


def test_subgroup_membership_and_equality():
    s3 = _CAT.group("S3")
    r = next(x for x in range(6) if s3.element_order(x) == 3)
    a3 = generated_subgroup(s3, [r])
    assert a3.contains(r) and a3.contains(s3.identity)
    assert not any(a3.contains(x) for x in range(6) if s3.element_order(x) == 2)
    assert a3 == subgroup(s3, list(a3.elements)) and a3 != full_subgroup(s3)
    # another S3 object: equal elements, different parent
    other = build_from_permutations(3, [(1, 0, 2), (1, 2, 0)])
    assert a3 != subgroup(other, list(a3.elements))
    assert a3 != a3.elements


def test_subgroup_refuses_a_two_dimensional_array():
    _refused(TypeError, "subgroup elements must be a flat collection of integers",
             subgroup, _CAT.group("S3"), np.array([[0, 1], [2, 3]]))


def test_conductor_functions_refuse_characters_of_another_group():
    c2, c3 = _CAT.group("C2"), _CAT.group("C3")
    filt = RamificationFiltration(23, 23, (full_subgroup(c2),))
    ctx = GaloisContext(c2, (filt,), name="quad-m23", disc=23)
    foreign = character_table(c3)
    message = "character does not live on the filtration's group"
    _refused(NotACharacter, message, conductor_exponent, foreign[1], filt)
    _refused(NotACharacter, message, conductors, ctx, [foreign[1]])
    _refused(NotACharacter, message, conductors, ctx,
             [character_table(c2)[1], foreign[0]])
    _refused(NotACharacter, "table does not belong to the context's group",
             verify_conductor_discriminant, ctx, foreign, 23)
    # the context's own table passes: 1 * 23 = 23
    assert verify_conductor_discriminant(ctx, character_table(c2), 23)
