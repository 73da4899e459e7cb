"""The batched Gram kernel for class-function inner products, and the exact
table check that `CharacterTable.validate` runs.

The oracle is the classwise formula the kernel replaced, evaluated value by
value with `Cyclotomic` arithmetic: (1/|G|) sum_c |C| a_c conj(b_c).  The
table check is fed tables altered in ways it must refuse.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charcond import characters, cyclotomic
from charcond.catalog import Catalog
from charcond.characters import (Character, CharacterTable, ClassFunction,
                                 character_table, decompose, inner_product,
                                 inner_product_matrix)
from charcond.cyclotomic import (Cyclotomic, _evaluation_data, _galois_matrix,
                                 _matmul, align, cyclo_sum, gram)
from charcond.errors import InternalContradiction
from charcond.groups import parse_group_text


def oracle_inner_product(phi, psi):
    sizes = phi.partition.sizes
    total = cyclo_sum(a * b.conjugate() * sz
                      for a, b, sz in zip(phi.values, psi.values, sizes))
    return total * Fraction(1, phi.group.order)


_CAT = Catalog()
# mixed class counts, exponents and class sizes
_GROUPS = [_CAT.group(name) for name in ("C1", "S3", "C6", "D4", "Q8", "C12")]


def _value(order, coeffs, den):
    return Cyclotomic(order, [Fraction(c, den)
                              for c in coeffs[:cyclotomic._phi(order)]])


# conductors with lcm at most 120, so several meet in one class function
_values = st.builds(_value, st.sampled_from([1, 3, 4, 5, 8, 12, 15]),
                    st.lists(st.integers(-5, 5), min_size=8, max_size=8),
                    st.sampled_from([1, 1, 2, 3, 7]))


@st.composite
def class_function_pairs(draw):
    g = draw(st.sampled_from(_GROUPS))
    k = len(characters.conjugacy_classes(g))
    a = draw(st.lists(_values, min_size=k, max_size=k))
    b = draw(st.lists(_values, min_size=k, max_size=k))
    return ClassFunction(g, a), ClassFunction(g, b)


@settings(max_examples=150, deadline=None)
@given(class_function_pairs())
def test_inner_product_matches_oracle(pair):
    phi, psi = pair
    got = inner_product(phi, psi)
    want = oracle_inner_product(phi, psi)
    assert got == want
    assert (got.order, got.nums, got.den) == (want.order, want.nums, want.den)
    assert inner_product_matrix([phi, psi], [psi, phi]) == [
        [want, oracle_inner_product(phi, phi)],
        [oracle_inner_product(psi, psi), oracle_inner_product(psi, phi)]]


def test_oracle_cases_include_non_rational_results():
    g = _CAT.group("C12")
    z = Cyclotomic.zeta
    phi = ClassFunction(g, [z(12, c) for c in range(12)])
    psi = ClassFunction(g, [Fraction(1, 3)] + [z(8)] * 11)
    got = inner_product(phi, psi)
    assert not got.is_rational()
    assert got == oracle_inner_product(phi, psi)


def test_huge_entries_take_the_exact_object_path():
    g = _CAT.group("C4")
    big = 10 ** 30
    phi = ClassFunction(g, [Cyclotomic(4, [big, 3]), Fraction(1, 2),
                            Cyclotomic(3, [-big, big + 1]), 7])
    psi = ClassFunction(g, [Cyclotomic.zeta(4), big, 0, Cyclotomic.zeta(3)])
    e, (a, b), den = align((fn.e, fn.nums[None], fn.den) for fn in (phi, psi))
    assert a.dtype == object and den == 2
    assert gram(a, b, phi.partition.sizes, e).dtype == object
    assert inner_product(phi, psi) == oracle_inner_product(phi, psi)
    assert inner_product(phi, phi) == oracle_inner_product(phi, phi)


def test_int64_entries_with_a_large_bound_switch_to_object():
    # every entry fits in int64, but the sums might not
    g = _CAT.group("C3")
    phi = ClassFunction(g, [2 ** 40, Cyclotomic.zeta(3, 2) * 2 ** 40, 5])
    assert phi.nums.dtype == np.int64
    assert gram(phi.nums[None], phi.nums[None], phi.partition.sizes,
                phi.e).dtype == object
    assert inner_product(phi, phi) == oracle_inner_product(phi, phi)


def test_gram_matches_oracle_on_a_table():
    table = character_table(_CAT.group("Q8xC3"))
    reg = ClassFunction(table.group, [table.group.order] + [0] * (len(table) - 1))
    got = inner_product_matrix([reg] + list(table), table)
    assert got == [[oracle_inner_product(a, b) for b in table]
                   for a in [reg] + list(table)]
    assert decompose(reg, table) == [(i, r.degree) for i, r in enumerate(table)]


def _altered(name, i, values):
    g = _CAT.group(name)
    nums = character_table(g).nums.copy()
    nums[i] = Character(g, values).nums
    return CharacterTable(g, nums)


@pytest.mark.parametrize("name, i, c, value, where", [
    ("S3", 2, 1, 1, "(0, 2)"),
    ("Q8", 4, 3, Cyclotomic.zeta(4), "(0, 4)"),
    ("C12", 11, 11, Cyclotomic.zeta(12, 5), "(0, 11)"),
])
def test_validate_reports_one_altered_value(name, i, c, value, where):
    vals = list(character_table(_CAT.group(name))[i].values)
    vals[c] = Cyclotomic.from_rational(value) if isinstance(value, int) else value
    with pytest.raises(InternalContradiction) as exc:
        _altered(name, i, vals).validate()
    assert str(exc.value) == f"row orthogonality fails at {where}"


@pytest.mark.parametrize("name, i, src, where", [
    ("C4", 2, 3, "(2, 3)"), ("C4", 3, 1, "(1, 3)"),
    ("C12", 5, 9, "(5, 9)"), ("Q8xC3", 7, 9, "(7, 9)"),
])
def test_validate_reports_first_failure_in_row_major_order(name, i, src, where):
    table = _altered(name, i, character_table(_CAT.group(name))[src].values)
    with pytest.raises(InternalContradiction) as exc:
        table.validate()
    assert str(exc.value) == f"row orthogonality fails at {where}"


def _refused(g, nums) -> str:
    with pytest.raises(InternalContradiction) as exc:
        CharacterTable(g, nums).validate()
    return str(exc.value)


_DEGREES = "degrees are not positive integers whose squares sum to |G|"
_GALOIS = "the table is not Galois-stable"


@pytest.mark.parametrize("name, i", [("S3", 1), ("C3", 1), ("C5", 1),
                                     ("C12", 2)])
def test_validate_refuses_a_negated_row(name, i):
    # S3's sign row, or a cyclic group's first non-real row: negating it
    # keeps the degree squares and both orthogonality relations
    g = _CAT.group(name)
    nums = character_table(g).nums.copy()
    nums[i] = -nums[i]
    assert _refused(g, nums) == _DEGREES


def test_validate_refuses_a_degree_outside_the_rationals():
    g = _CAT.group("C3")
    nums = character_table(g).nums.copy()
    nums[1, 0, 1] = 1
    assert _refused(g, nums) == _DEGREES


@pytest.mark.parametrize("name", ["S3", "D4", "C12", "Q8xC3"])
def test_validate_refuses_every_single_changed_numerator(name):
    g = _CAT.group(name)
    nums = character_table(g).nums
    for at in np.ndindex(nums.shape):
        changed = nums.copy()
        changed[at] += 1
        _refused(g, changed)


def _galois_image(nums, e, a):
    return _matmul(nums, _galois_matrix(e, a))


@pytest.mark.parametrize("name", ["C5", "C12", "Q8xC3", "S3xC3"])
def test_validate_refuses_a_repeated_row_from_a_galois_conjugate(name):
    # the complex conjugate of the first non-rational row is row m; it
    # replaces the first other row j of its degree, so the degrees still hold
    g = _CAT.group(name)
    e, nums = g.exponent(), character_table(g).nums.copy()
    l = int(np.flatnonzero(nums[:, :, 1:].any(axis=(1, 2)))[0])
    image = _galois_image(nums[l], e, e - 1)
    m = int(np.flatnonzero((nums == image).all(axis=(1, 2)))[0])
    j = next(r for r in range(len(nums))
             if r != m and nums[r, 0, 0] == nums[m, 0, 0])
    nums[j] = image
    assert _refused(g, nums) == (
        f"row orthogonality fails at {(min(j, m), max(j, m))}")


@pytest.mark.parametrize("name", ["C5", "C12", "Q8xC3", "S3xC3"])
def test_validate_refuses_a_value_replaced_by_its_galois_conjugate(name):
    g = _CAT.group(name)
    e, nums = g.exponent(), character_table(g).nums.copy()
    i, c = (int(x) for x in np.argwhere(nums[:, :, 1:].any(axis=2))[0])
    image = _galois_image(nums[i, c], e, e - 1)
    assert not np.array_equal(image, nums[i, c])
    nums[i, c] = image
    _refused(g, nums)


def test_validate_refuses_an_orthogonal_table_that_is_not_galois_stable():
    # rows 4 and 5 of Q8xC3, A and B, agree on classes 0-8 and differ by sign
    # on 9-14, so (A + B +- i (A - B)) / 2 are integral of degree 1, and
    # exactly orthogonal to each other and to every other row; but
    # zeta_3 -> zeta_3^2 fixing i takes them to no row
    g = _CAT.group("Q8xC3")
    table = character_table(g)
    a, b = table[4].values, table[5].values
    i = Cyclotomic.zeta(4)
    twist = [Character(g, [(x + y + sign * i * (x - y)) * Fraction(1, 2)
                           for x, y in zip(a, b)]) for sign in (1, -1)]
    nums = table.nums.copy()
    nums[4], nums[5] = twist[0].nums, twist[1].nums
    got = CharacterTable(g, nums)
    assert got.degrees() == table.degrees()
    assert inner_product_matrix(got, got) == [
        [int(x == y) for y in range(15)] for x in range(15)]
    assert _refused(g, nums) == _GALOIS


def test_validate_takes_two_primes_where_the_bound_needs_them(monkeypatch):
    # S7 from permutations: exponent 420, degrees up to 35, and a bound on
    # its Gram numerators past the first prime below 2^26
    g = parse_group_text("perm 7\ngen 1 0 2 3 4 5 6\ngen 1 2 3 4 5 6 0\n")
    # a copy, which is checked where the cached array is not
    table = CharacterTable(g, character_table(g).nums.copy())
    used = []

    def counted(e, i):
        used.append(i)
        return _evaluation_data(e, i)
    monkeypatch.setattr(characters, "_evaluation_data", counted)
    table.validate()
    assert used == [0, 1]
    nums = table.nums.copy()
    nums[7, 4, 3] += 1
    _refused(g, nums)


@pytest.fixture
def table_checks(monkeypatch):
    """The orders of the groups whose tables `_check_table` checks."""
    checks = []
    check = characters._check_table

    def counted(g, *args):
        checks.append(g.order)
        return check(g, *args)
    monkeypatch.setattr(characters, "_check_table", counted)
    return checks


@pytest.mark.parametrize("name", ["C12", "Q8xC3", "S4"])
def test_validate_checks_every_array_but_the_cached_one(name, table_checks):
    # the cached array passed the check when it was built; a copy is checked
    # once, and a tampered copy is still refused
    table = character_table(_CAT.group(name))
    table_checks.clear()
    table.validate()
    CharacterTable(table.group, table.nums).validate()
    assert table_checks == []
    nums = table.nums.copy()
    CharacterTable(table.group, nums).validate()
    assert table_checks == [table.group.order]
    nums[1, -1, 0] += 1
    assert _refused(table.group, nums)
    assert table_checks == [table.group.order] * 2


def test_validate_does_no_cyclotomic_arithmetic(cyclotomic_calls):
    tables = [character_table(_CAT.group(n)) for n in ("C12", "Q8xC3", "D4")]
    for table in tables:
        # copies, so that the check runs
        CharacterTable(table.group, table.nums.copy()).validate()
    assert cyclotomic_calls == []
    # the patches do see the builder an inner product still ends in
    inner_product(tables[0][1], tables[0][1])
    assert cyclotomic_calls == ["values"]


def test_a_table_builds_no_values_until_it_is_rendered(cyclotomic_calls):
    g = Catalog().group("C4xC4xC3")
    # Dixon's method runs here even where another group shares the cache
    g._cache.pop("_table", None)
    table = character_table(g)
    assert "_table" in g._cache
    assert cyclotomic_calls == []
    table.render_text()
    assert cyclotomic_calls == ["values"]
    table.to_json_dict()
    assert cyclotomic_calls == ["values", "values"]
