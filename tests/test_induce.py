"""Induction as one integer matmul over the encoded values.

The oracle is the classwise formula `induce` replaced, evaluated value by
value with `Cyclotomic` arithmetic: (1/|H|) sum_hj counts[gi, hj] theta(hj).
"""

import sys
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from charcond import characters, cyclotomic
from charcond.catalog import Catalog
from charcond.characters import ClassFunction, induce
from charcond.cyclotomic import Cyclotomic, cyclo_sum
from charcond.groups import generated_subgroup, normal_subgroups


def oracle_induce(theta, s):
    counts = characters._induction_counts(s)
    vals = []
    for row in counts:
        total = cyclo_sum(theta.values[hj] * int(c)
                          for hj, c in enumerate(row) if c)
        vals.append(total * Fraction(1, s.order))
    return ClassFunction(s.parent, vals)


_CAT = Catalog()
_SUBGROUPS = [s for name in ("S3", "D4", "Q8", "C12", "S4", "Q8xC3")
              for s in normal_subgroups(_CAT.group(name))]
_SUBGROUPS += [generated_subgroup(_CAT.group("S4"), [1]),
               generated_subgroup(_CAT.group("D6"), [3])]


def _value(order, coeffs, den):
    return Cyclotomic(order, [Fraction(c, den)
                              for c in coeffs[:cyclotomic._phi(order)]])


_values = st.builds(_value, st.sampled_from([1, 3, 4, 5, 8, 12]),
                    st.lists(st.integers(-5, 5), min_size=4, max_size=4),
                    st.sampled_from([1, 1, 2, 3, 7]))


@st.composite
def class_functions_on_subgroups(draw):
    s = draw(st.sampled_from(_SUBGROUPS))
    k = len(characters.conjugacy_classes(s.as_group()))
    return ClassFunction(s.as_group(), draw(st.lists(_values, min_size=k,
                                                     max_size=k))), s


def _same(got, want):
    return [(v.order, v.nums, v.den) for v in got.values] == [
        (v.order, v.nums, v.den) for v in want.values]


@settings(max_examples=150, deadline=None)
@given(class_functions_on_subgroups())
def test_induce_matches_oracle(case):
    theta, s = case
    got = induce(theta, s)
    assert got.group is s.parent
    assert _same(got, oracle_induce(theta, s))


def test_huge_values_take_the_exact_object_path(monkeypatch):
    # the dtype that `cyclotomic._matmul` picks for the induction product
    chosen = []
    int_dtype = cyclotomic.int_dtype

    def spy(bound):
        dtype = int_dtype(bound)
        if sys._getframe(2).f_code.co_name == "_induction_sums":
            chosen.append(dtype)
        return dtype

    monkeypatch.setattr(cyclotomic, "int_dtype", spy)
    s = generated_subgroup(_CAT.group("S3"), [2])
    h = s.as_group()
    big = 10 ** 30
    theta = ClassFunction(h, [big, Cyclotomic(3, [big, -big - 1]),
                              Fraction(1, 3)])
    assert theta.nums.dtype == object
    assert _same(induce(theta, s), oracle_induce(theta, s))
    # int64 entries whose sums might not fit switch to Python ints too
    theta = ClassFunction(h, [2 ** 61, Cyclotomic.zeta(3) * 2 ** 61, 1])
    assert theta.nums.dtype == np.int64
    assert _same(induce(theta, s), oracle_induce(theta, s))
    assert chosen == [object, object]
    theta = ClassFunction(h, [2 ** 40, 1, 1])
    assert _same(induce(theta, s), oracle_induce(theta, s))
    assert chosen[-1] is np.int64
