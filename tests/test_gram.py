"""The batched Gram kernel for class-function inner products.

The oracle is the classwise formula the kernel replaced, evaluated value by
value with `Cyclotomic` arithmetic: (1/|G|) sum_c |C| a_c conj(b_c).
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
from charcond.cyclotomic import Cyclotomic, cyclo_sum, encode, gram
from charcond.errors import InternalContradiction


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
    vals, den = encode([phi.values, psi.values])
    assert vals.dtype == object and den == 2
    assert gram(vals[:1], vals[1:], phi.partition.sizes).dtype == object
    assert inner_product(phi, psi) == oracle_inner_product(phi, psi)
    assert inner_product(phi, phi) == oracle_inner_product(phi, phi)


def test_int64_entries_with_a_large_bound_switch_to_object():
    # every entry fits in int64, but the sums might not
    g = _CAT.group("C3")
    phi = ClassFunction(g, [2 ** 40, Cyclotomic.zeta(3, 2) * 2 ** 40, 5])
    vals, _ = encode([phi.values])
    assert vals.dtype == np.int64
    assert gram(vals, vals, phi.partition.sizes).dtype == object
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
    rows = list(character_table(g).rows)
    rows[i] = Character(g, values)
    return CharacterTable(g, tuple(rows))


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


def test_validate_does_no_cyclotomic_arithmetic(monkeypatch):
    tables = [character_table(_CAT.group(n)) for n in ("C12", "Q8xC3", "D4")]
    calls = []

    def counting(fn, name):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    cls = cyclotomic.Cyclotomic
    for attr in ("__mul__", "__rmul__", "galois", "conjugate"):
        monkeypatch.setattr(cls, attr, counting(getattr(cls, attr), attr))
    for mod in (cyclotomic, characters):
        monkeypatch.setattr(mod, "cyclo_sum", counting(cyclo_sum, "cyclo_sum"))
    monkeypatch.setattr(cyclotomic, "_normalize",
                        counting(cyclotomic._normalize, "_normalize"))
    for table in tables:
        table.validate()
    assert calls == []
    # the patches do see the arithmetic an inner product still ends in
    inner_product(tables[0][1], tables[0][1])
    assert "_normalize" in calls
