"""The array calculus of class functions against a per-value oracle.

A class function stores one integer array of power-basis numerators over one
denominator.  The oracle below works value by value with `Cyclotomic`
arithmetic, the way the class-function operations were computed before the
array form: every operation must give exactly the same values, and functions
with equal values must be equal and hash alike however they were built.
"""

from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charcond import characters, cyclotomic
from charcond.catalog import Catalog
from charcond.characters import (Character, ClassFunction, conjugate_character,
                                 induce, inflate, inner_product,
                                 inner_product_matrix, pointwise_product,
                                 restrict)
from charcond.cyclotomic import Cyclotomic, cyclo_sum
from charcond.errors import NotACharacter
from charcond.groups import conjugacy_classes, normal_subgroups, quotient
from charcond.verify import (suite_classification, suite_clifford,
                             suite_dichotomy, suite_gallagher)


# ---------------------------------------------------------------------------
# the per-value oracle

def oracle_restrict(chi, s):
    h = s.as_group()
    emb = s.embedding()
    return [chi(int(emb[r])) for r in conjugacy_classes(h).representatives]


def oracle_induce(theta, s):
    counts = characters._induction_counts(s)
    return [cyclo_sum(theta.values[hj] * int(c) for hj, c in enumerate(row) if c)
            * Fraction(1, s.order) for row in counts]


def oracle_conjugate(theta, s, g):
    return [theta.values[int(p)] for p in characters._conj_class_perms(s)[g]]


def oracle_inflate(beta, qmap):
    src = qmap.source
    qpart = conjugacy_classes(qmap.group)
    return [beta.values[int(qpart.class_of[qmap(r)])]
            for r in conjugacy_classes(src).representatives]


def oracle_inner_product(phi, psi):
    total = cyclo_sum(a * b.conjugate() * sz for a, b, sz
                      in zip(phi.values, psi.values, phi.partition.sizes))
    return total * Fraction(1, phi.group.order)


def triples(values):
    return [(v.order, v.nums, v.den) for v in values]


def assert_matches(got, group, want):
    """`got` has exactly the values `want`, in canonical stored form."""
    assert got.group is group
    assert triples(got.values) == triples(want)
    ref = ClassFunction(group, want)
    assert got == ref and hash(got) == hash(ref)
    assert got.e == lcm(group.exponent(), *(v.order for v in want))
    assert got.den > 0
    assert np.gcd.reduce(np.append(got.nums.ravel(), got.den)) == 1


# ---------------------------------------------------------------------------
# inputs: small groups, values of conductor 1, 3, 4, 5, 8, 12 and 15

_CAT = Catalog()
_GROUPS = [_CAT.group(n) for n in ("C1", "C2", "S3", "C6", "D4", "Q8", "C12")]
_NORMAL = [s for n in ("S3", "D4", "Q8", "C12", "S4", "D6")
           for s in normal_subgroups(_CAT.group(n))]
_QUOTIENTS = [quotient(s.parent, s)[1] for s in _NORMAL]


def _value(order, coeffs, den, big):
    phi = cyclotomic._phi(order)
    return Cyclotomic(order, [Fraction(c * big, den) for c in coeffs[:phi]])


_values = st.builds(_value, st.sampled_from([1, 3, 4, 5, 8, 12, 15]),
                    st.lists(st.integers(-4, 4), min_size=8, max_size=8),
                    st.sampled_from([1, 1, 1, 2, 3]),
                    # an entry near 10^30 takes the Python-int path
                    st.sampled_from([1] * 9 + [10 ** 30]))


def _function(draw, g):
    k = len(conjugacy_classes(g))
    return ClassFunction(g, draw(st.lists(_values, min_size=k, max_size=k)))


@st.composite
def pairs(draw):
    g = draw(st.sampled_from(_GROUPS))
    return _function(draw, g), _function(draw, g)


@st.composite
def on_normal_subgroups(draw):
    s = draw(st.sampled_from(_NORMAL))
    return s, _function(draw, s.parent), _function(draw, s.as_group())


@st.composite
def on_quotients(draw):
    qmap = draw(st.sampled_from(_QUOTIENTS))
    return qmap, _function(draw, qmap.group)


# ---------------------------------------------------------------------------
# the operations

@settings(max_examples=120, deadline=None)
@given(pairs(), st.fractions(max_denominator=7).filter(lambda q: abs(q) < 50))
def test_sums_scales_and_products_match_the_oracle(pair, c):
    phi, psi = pair
    g = phi.group
    assert_matches(phi + psi, g, [a + b for a, b in zip(phi.values, psi.values)])
    assert_matches(phi.scale(c), g, [v * c for v in phi.values])
    assert_matches(pointwise_product(phi, psi), g,
                   [a * b for a, b in zip(phi.values, psi.values)])
    z = Cyclotomic.zeta(5, 2)
    assert_matches(phi.scale(z), g, [v * z for v in phi.values])


@settings(max_examples=120, deadline=None)
@given(pairs())
def test_inner_products_match_the_oracle(pair):
    phi, psi = pair
    want = [[oracle_inner_product(a, b) for b in (phi, psi)] for a in (phi, psi)]
    got = inner_product_matrix([phi, psi], [phi, psi])
    assert [[triples([v])[0] for v in row] for row in got] == \
        [[triples([v])[0] for v in row] for row in want]
    assert inner_product(psi, phi) == want[1][0]


@settings(max_examples=120, deadline=None)
@given(on_normal_subgroups(), st.integers(0, 10 ** 6))
def test_restrict_induce_and_conjugate_match_the_oracle(case, pick):
    s, chi, theta = case
    h = s.as_group()
    assert_matches(restrict(chi, s), h, oracle_restrict(chi, s))
    assert_matches(induce(theta, s), s.parent, oracle_induce(theta, s))
    g = pick % s.parent.order
    assert_matches(conjugate_character(theta, s, g), h,
                   oracle_conjugate(theta, s, g))


@settings(max_examples=80, deadline=None)
@given(on_quotients())
def test_inflate_matches_the_oracle(case):
    qmap, beta = case
    assert_matches(inflate(beta, qmap), qmap.source, oracle_inflate(beta, qmap))


@settings(max_examples=80, deadline=None)
@given(pairs())
def test_equal_functions_built_by_different_routes_hash_alike(pair):
    phi, psi = pair
    routes = [
        phi,
        ClassFunction(phi.group, phi.values),
        (phi + phi).scale(Fraction(1, 2)),
        phi.scale(10 ** 30).scale(Fraction(1, 10 ** 30)),
        (phi + psi) + psi.scale(-1),
        pointwise_product(phi, ClassFunction(phi.group, [1] * len(phi.values))),
    ]
    for other in routes:
        assert other == phi and hash(other) == hash(phi)
    assert len({phi, *routes}) == 1
    if phi.values != psi.values:
        assert phi != psi


def test_table_rows_keep_the_exponent_and_integer_numerators():
    table = characters.character_table(_CAT.group("C12"))
    for row in table:
        assert row.e == 12 and row.den == 1 and row.nums.dtype == np.int64
    # a conductor outside exp(G) stays exact on the larger field
    g = _CAT.group("S3")
    fn = ClassFunction(g, [Cyclotomic.zeta(5), 1, Cyclotomic.zeta(15, 7)])
    assert fn.e == 30
    assert triples(fn.values) == triples(
        [Cyclotomic.zeta(5), Cyclotomic.one(), Cyclotomic.zeta(15, 7)])


# ---------------------------------------------------------------------------
# the hot path does no per-value cyclotomic arithmetic

def test_clifford_sweeps_do_no_cyclotomic_arithmetic(cyclotomic_calls):
    calls = cyclotomic_calls
    cat = Catalog()
    for suite in (suite_clifford, suite_dichotomy, suite_classification,
                  suite_gallagher):
        rep = suite(cat, 12)
        assert rep.checks and rep.passed
    # values are built (inner products, tables), but never by arithmetic
    assert set(calls) <= {"values"}
    calls.clear()
    # the patches do see per-value arithmetic where it still happens, and an
    # inner product reaching the builder
    Cyclotomic.zeta(3) + 1
    assert calls == ["values", "__add__", "cyclo_sum", "values"]
    calls.clear()
    g = cat.group("C3")
    inner_product(ClassFunction(g, [1, 1, 1]), ClassFunction(g, [1, 1, 1]))
    assert calls == ["values"]


def test_character_checks_hold_on_the_python_int_path():
    g = _CAT.group("S3")
    with pytest.raises(NotACharacter, match="degree"):
        Character(g, [Fraction(1, 10 ** 30), 0, 0])
    with pytest.raises(NotACharacter, match="norm"):
        Character(g, [10 ** 30, 0, 0], irreducible=True)
    big = Character(g, [10 ** 30, 0, 0])
    assert big.degree == 10 ** 30 and big.nums.dtype == object


def test_a_zero_function_beside_a_huge_one_stays_exact():
    # an all-zero operand must not let a 10^30 entry pick int64
    g = _CAT.group("C2")
    big, zero = ClassFunction(g, [10 ** 30, 1]), ClassFunction(g, [0, 0])
    assert inner_product(big, zero) == 0 and inner_product(zero, big) == 0
    assert big.scale(0) == zero and zero.scale(10 ** 30) == zero
    assert pointwise_product(big, zero) == zero


def test_a_class_function_lifts_once_per_distinct_conductor(monkeypatch):
    # the 12 powers of zeta_12 have conductors 1, 3, 4 and 12
    lifts = []
    real = cyclotomic.lift

    def counted(nums, e, big):
        lifts.append(e)
        return real(nums, e, big)

    monkeypatch.setattr(cyclotomic, "lift", counted)
    roots = [Cyclotomic.zeta(12, c) for c in range(12)]
    lifts.clear()
    fn = ClassFunction(Catalog().group("C12"), roots)
    assert sorted(lifts) == [1, 3, 4, 12]
    assert fn.values == tuple(roots)
