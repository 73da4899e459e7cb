"""Exactness and ring laws for the cyclotomic arithmetic kernel."""

import copy
import pickle
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charcond.cyclotomic import (Cyclotomic, _search_steps, align, cyclo_sum,
                                 cyclotomic_polynomial, values)
from conftest import run_fresh


def sympy_cyclotomic(e):
    import sympy
    poly = sympy.Poly(sympy.cyclotomic_poly(e, sympy.Symbol("x")))
    return tuple(int(c) for c in reversed(poly.all_coeffs()))


@pytest.mark.parametrize("e", list(range(1, 37)) + [40, 45, 105])
def test_cyclotomic_polynomial_matches_sympy(e):
    assert cyclotomic_polynomial(e) == sympy_cyclotomic(e)


def test_zeta_low_orders_are_rational():
    assert Cyclotomic.zeta(1) == 1
    assert Cyclotomic.zeta(2) == -1
    assert Cyclotomic.zeta(2).order == 1


def test_roots_of_unity_relations():
    for e in (3, 4, 5, 7, 8, 9, 12):
        z = Cyclotomic.zeta(e)
        assert z ** e == 1
        assert cyclo_sum(z ** k for k in range(e)) == 0
        assert z * z.conjugate() == 1


def test_conductor_descent_finds_minimal_field():
    # zeta_6 lives in Q(zeta_3); the stored conductor must say so
    z6 = Cyclotomic.zeta(6)
    assert z6.order == 3
    assert z6 == 1 + Cyclotomic.zeta(3)
    # an element built at conductor 12 that is really rational
    z12 = Cyclotomic.zeta(12)
    mixed = z12 ** 3 * z12.conjugate() ** 3
    assert mixed.is_rational() and mixed == 1
    # sqrt(2) = zeta_8 + zeta_8^-1 has conductor 8, square 2
    r = Cyclotomic.zeta(8) + Cyclotomic.zeta(8).conjugate()
    assert r.order == 8
    assert (r * r).as_rational() == 2


def test_rational_embedding_is_ring_homomorphism():
    vals = [Fraction(1, 2), Fraction(-3), Fraction(7, 5), Fraction(0)]
    for a in vals:
        for b in vals:
            assert Cyclotomic.from_rational(a) + Cyclotomic.from_rational(b) \
                == Cyclotomic.from_rational(a + b)
            assert Cyclotomic.from_rational(a) * Cyclotomic.from_rational(b) \
                == Cyclotomic.from_rational(a * b)


def test_coeffs_roundtrip_and_uniqueness():
    z5 = Cyclotomic.zeta(5)
    x = 2 * z5 ** 3 - z5 + Fraction(1, 3)
    rebuilt = Cyclotomic(x.order, x.coeffs)
    assert rebuilt == x
    assert len(x.coeffs) == 4


def test_as_rational_raises_on_irrational():
    with pytest.raises(ValueError):
        Cyclotomic.zeta(5).as_rational()


def test_galois_needs_coprime_exponent():
    with pytest.raises(ValueError):
        Cyclotomic.zeta(6).galois(3)


def test_search_steps_generate_the_units_mod_e():
    # the table check takes its Galois steps from here, and they must
    # generate all of (Z/e)^x
    for e in range(1, 301):
        gens = [a for _, steps in _search_steps(e) for a in steps
                if a is not None]
        reached, frontier = {1 % e}, [1 % e]
        while frontier:
            frontier = {u * a % e for u in frontier for a in gens} - reached
            reached.update(frontier)
        assert reached == {u for u in range(e) if gcd(u, e) == 1}, e


def test_string_rendering():
    z5 = Cyclotomic.zeta(5)
    assert str(z5 ** 3 + z5) == "z5^3 + z5"
    assert str(Cyclotomic.from_rational(Fraction(-1, 2))) == "-1/2"
    assert str(Cyclotomic.zero()) == "0"
    assert str(2 * z5 - 1) == "2*z5 - 1"


_conductors = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12])
_smallfrac = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def cyclotomics(draw):
    e = draw(_conductors)
    z = Cyclotomic.zeta(e)
    coeffs = draw(st.lists(_smallfrac, min_size=1, max_size=3))
    total = Cyclotomic.zero()
    for i, c in enumerate(coeffs):
        total = total + z ** i * c
    return total


@settings(max_examples=60, deadline=None)
@given(cyclotomics(), cyclotomics(), cyclotomics())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(cyclotomics())
def test_conjugation_is_an_involution(a):
    assert a.conjugate().conjugate() == a


@settings(max_examples=40, deadline=None)
@given(cyclotomics(), cyclotomics())
def test_conjugation_distributes(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@settings(max_examples=40, deadline=None)
@given(cyclotomics())
def test_normal_form_is_stable(a):
    # rebuilding from the exposed coefficients reproduces the same element
    assert Cyclotomic(a.order, a.coeffs) == a
    assert hash(Cyclotomic(a.order, a.coeffs)) == hash(a)


def test_an_empty_sum_is_zero():
    total = cyclo_sum([])
    assert total == 0
    assert (total.order, total.nums, total.den) == (1, (0,), 1)


@pytest.mark.parametrize("den", [1, 2, 3])
def test_align_puts_coprime_conductors_over_their_lcm(den):
    xs = [Cyclotomic(3, [1, Fraction(2, den)]),
          Cyclotomic(4, [Fraction(-1, den), 3]),
          Cyclotomic(5, [0, Fraction(1, den), 1, -2])]
    parts = [(x.order, np.array([x.nums]), x.den) for x in xs]
    e, nums, d = align(parts)
    assert (e, d) == (60, den)
    # each aligned row descends to the value it came from
    assert [values(n, e, d)[0] for n in nums] == xs
    assert all(n.shape == (1, 16) for n in nums)
    assert align(parts, 7)[0] == 420
    assert cyclo_sum(xs) == values(sum(nums), e, d)[0]
    assert cyclo_sum(xs) - xs[0] - xs[1] == xs[2]


def test_a_sum_lifts_once_per_distinct_conductor(monkeypatch):
    from charcond import cyclotomic
    lifts = []
    real = cyclotomic.lift

    def counted(nums, e, big):
        lifts.append(e)
        return real(nums, e, big)

    monkeypatch.setattr(cyclotomic, "lift", counted)
    # two conductors, each with two denominators
    xs = [Cyclotomic(3, [1, Fraction(2, 3)]), Cyclotomic(4, [1, -1]),
          Cyclotomic(3, [Fraction(-1, 2), 5]), Cyclotomic(4, [Fraction(1, 6), 1])]
    lifts.clear()
    total = cyclo_sum(xs)
    assert sorted(lifts) == [3, 4]
    assert total == Cyclotomic(3, [Fraction(1, 2), Fraction(17, 3)]) + Cyclotomic(
        4, [Fraction(7, 6), 0])


def test_align_keeps_small_entries_int64_and_huge_ones_exact():
    big = 10 ** 30
    small = (3, np.array([[1, -2]]), 1)
    huge = (4, np.array([[big, 1]], dtype=object), 2)
    e, (a, b), den = align([small, huge])
    assert (e, den) == (12, 2)
    assert a.dtype == np.int64 and b.dtype == object
    assert values(a, e, den)[0] == Cyclotomic(3, [1, -2])
    assert values(b, e, den)[0] == Cyclotomic(4, [Fraction(big, 2), Fraction(1, 2)])
    total = cyclo_sum([Cyclotomic(4, [big, 1]), Cyclotomic.zeta(3)])
    assert total.order == 12 and total - Cyclotomic.zeta(3) == Cyclotomic(4, [big, 1])


@pytest.mark.parametrize("copier", [
    copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_rebuild_an_equal_value(copier):
    for v in (Cyclotomic.zeta(3), Cyclotomic.zeta(12) * Fraction(3, 7),
              Cyclotomic.from_rational(Fraction(-5, 2))):
        w = copier(v)
        assert w == v and hash(w) == hash(v)
        assert (w.order, w.nums, w.den) == (v.order, v.nums, v.den)


def test_a_sweep_round_evicts_nothing_from_the_conductor_caches(fresh_sweep):
    # misses equal the entries held only when nothing was evicted
    for name, info in fresh_sweep["caches"].items():
        assert info["misses"] == info["currsize"] < info["maxsize"], name


_MANY_PRIMES = """
import re
from pathlib import Path
from charcond.arith import is_prime
from charcond.cyclotomic import Cyclotomic

def rss():
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"VmRSS:\\s*(\\d+)", status).group(1)) / 1024

z = Cyclotomic.zeta(7)
z + z.conjugate()
start = rss()
primes = [p for p in range(1000, 800, -1) if is_prime(p)][:20]
for p in primes:
    z = Cyclotomic.zeta(p)
    assert (z + z.conjugate()).order == p
print(rss() - start)
"""


def test_conductor_caches_bound_memory_over_many_large_conductors():
    # each conductor near 1000 holds an 8 MB power table; unbounded, the 20
    # below grew VmRSS by 142 MB, and the byte bound keeps about 32 MB
    run = run_fresh(_MANY_PRIMES)
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) < 80
