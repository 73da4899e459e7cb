"""`Cyclotomic` and the cyclotomic array kernels against sympy.

The oracle shares no code with `charcond.cyclotomic`.  A value stored at
conductor e is the polynomial sum_i nums[i] x^i / den modulo the cyclotomic
polynomial Phi_e, which sympy computes.  Values are compared at a common
conductor E: substitute x -> x^(E/e), which is exact modulo x^E - 1, and reduce
modulo Phi_E, where the remainder is unique.  The minimal conductor is checked
from its definition: the least d | E such that x -> x^k fixes the value for
every unit k = 1 (mod d).
"""

import json
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from charcond.cyclotomic import (Cyclotomic, _int_array, _power_array, _phi,
                                 cyclo_sum, descend, values)
from conftest import run_fresh

X = sympy.Symbol("x")
CONDUCTORS = list(range(1, 17)) + [24, 105, 997]
# entries this large run the Python-int (dtype object) path
BIG = 10 ** 30


@lru_cache(maxsize=None)
def phi_poly(e):
    return sympy.Poly(sympy.cyclotomic_poly(e, X), X, domain="QQ")


def poly(coeffs, e, big_e, k=1):
    """sum_i coeffs[i] zeta_e^i at conductor big_e, under x -> x^k, reduced
    modulo Phi_big_e."""
    step = big_e // e
    terms = {}
    for i, c in enumerate(coeffs):
        if c:
            m = i * step * k % big_e
            terms[(m,)] = terms.get((m,), 0) + sympy.Rational(c)
    return sympy.Poly.from_dict(terms or {(0,): 0}, X, domain="QQ").rem(
        phi_poly(big_e))


def as_poly(v, big_e, k=1):
    assert big_e % v.order == 0
    return poly([Fraction(c, v.den) for c in v.nums], v.order, big_e, k)


def units(e):
    return [k for k in range(1, e + 1) if gcd(k, e) == 1]


def least_fixed_conductor(p, big_e):
    """The least d | big_e with p(x^k) = p(x) mod Phi_big_e for every unit
    k = 1 (mod d)."""
    base = p.as_dict()
    for d in sorted(d for d in range(1, big_e + 1) if big_e % d == 0):
        coeffs = [0] * big_e
        for (m,), c in base.items():
            coeffs[m] = c
        if all(poly(coeffs, big_e, big_e, k) == p
               for k in units(big_e) if k % d == 1 % d):
            return d


def check_canonical(v, big_e):
    """v is stored in lowest terms at its minimal conductor, a divisor of big_e."""
    assert big_e % v.order == 0
    assert len(v.nums) == _phi(v.order) and v.den > 0
    assert gcd(v.den, *v.nums) == 1
    assert v.order == least_fixed_conductor(as_poly(v, big_e), big_e)


# ---------------------------------------------------------------------------
# strategies: a conductor E and values whose conductors divide E


@st.composite
def conductor_and_values(draw, count):
    big_e = draw(st.sampled_from(CONDUCTORS))
    divs = [d for d in range(1, big_e + 1) if big_e % d == 0]
    out = []
    for _ in range(count):
        e = draw(st.sampled_from(divs))
        n = _phi(e)
        coeffs = [0] * n
        for _ in range(draw(st.integers(0, min(n, 4)))):
            coeffs[draw(st.integers(0, n - 1))] = Fraction(
                draw(st.integers(-BIG, BIG) | st.integers(-3, 3)),
                draw(st.sampled_from([1, 1, 2, 6, BIG + 1])))
        out.append((e, coeffs))
    return big_e, out


def build(e, coeffs):
    v = Cyclotomic(e, coeffs)
    assert as_poly(v, e) == poly(coeffs, e, e)
    return v


# ---------------------------------------------------------------------------
# the power table


@pytest.mark.parametrize("e", CONDUCTORS)
def test_power_array_rows_are_remainders(e):
    table = _power_array(e)
    assert table.shape == (e, _phi(e))
    for m in range(e):
        rem = sympy.Poly(X ** m, X, domain="QQ").rem(phi_poly(e))
        want = [int(c) for c in reversed(rem.all_coeffs())]
        assert table[m].tolist() == want + [0] * (_phi(e) - len(want))


# ---------------------------------------------------------------------------
# ring operations, Galois action and minimal conductors


@settings(max_examples=60, deadline=None)
@given(conductor_and_values(2))
@example((12, [(12, [0, 1, 0, 0]), (4, [0, -1])]))
@example((997, [(997, [0] * 995 + [BIG]), (1, [Fraction(1, 3)])]))
def test_sum_and_product_match_sympy(case):
    big_e, specs = case
    a, b = (build(e, c) for e, c in specs)
    for got, want in ((a + b, as_poly(a, big_e) + as_poly(b, big_e)),
                      (a * b, as_poly(a, big_e) * as_poly(b, big_e)),
                      (a - b, as_poly(a, big_e) - as_poly(b, big_e))):
        assert as_poly(got, big_e) == want.rem(phi_poly(big_e))
        check_canonical(got, big_e)


@settings(max_examples=40, deadline=None)
@given(conductor_and_values(4), st.lists(st.integers(-5, 5), max_size=2))
def test_cyclo_sum_matches_sympy(case, ints):
    big_e, specs = case
    vals = [build(e, c) for e, c in specs]
    got = cyclo_sum(vals + ints)
    want = sum((as_poly(v, big_e) for v in vals),
               sympy.Poly(sum(ints), X, domain="QQ"))
    assert as_poly(got, big_e) == want.rem(phi_poly(big_e))
    check_canonical(got, big_e)


@settings(max_examples=40, deadline=None)
@given(conductor_and_values(1), st.data())
def test_galois_and_conjugate_match_sympy(case, data):
    big_e, [(e, coeffs)] = case
    v = build(e, coeffs)
    o = v.order
    k = data.draw(st.sampled_from(units(o)))
    got = v.galois(k)
    assert as_poly(got, o) == as_poly(v, o, k)
    check_canonical(got, o)
    bar = v.conjugate()
    assert as_poly(bar, o) == as_poly(v, o, -1)
    check_canonical(bar, o)


# ---------------------------------------------------------------------------
# the batched builder and descent


@st.composite
def rows_at(draw):
    """Rows of numerators at a conductor E, half of them lifted by sympy from
    divisors of E so that the batch holds several minimal conductors."""
    big_e, specs = draw(conductor_and_values(5))
    rows = []
    for e, coeffs in specs:
        coeffs = [int(c * 6 * (BIG + 1)) for c in coeffs]
        if draw(st.booleans()):
            p = poly(coeffs, e, big_e)
            coeffs = [int(c) for c in reversed(p.all_coeffs())]
            coeffs += [0] * (_phi(big_e) - len(coeffs))
        else:
            coeffs = [draw(st.integers(-BIG, BIG)) if c else 0
                      for c in coeffs + [0] * (_phi(big_e) - len(coeffs))]
        rows.append(coeffs)
    den = draw(st.sampled_from([1, 4, 6 * (BIG + 1)]))
    return big_e, rows, den


@settings(max_examples=40, deadline=None)
@given(rows_at())
def test_batched_values_match_one_by_one_and_sympy(case):
    big_e, rows, den = case
    got = values(_int_array(rows), big_e, den)
    assert got == [values(_int_array([r]), big_e, den)[0] for r in rows]
    for v, row in zip(got, rows):
        assert as_poly(v, big_e) == poly([Fraction(c, den) for c in row],
                                         big_e, big_e)
        check_canonical(v, big_e)


@settings(max_examples=30, deadline=None)
@given(rows_at())
def test_descend_matches_sympy(case):
    big_e, rows, _ = case
    nums = _int_array(rows)
    conds = [least_fixed_conductor(poly(r, big_e, big_e), big_e) for r in rows]
    for d in (d for d in range(1, big_e) if big_e % d == 0):
        down = descend(nums, big_e, d)
        assert (down is not None) == all(d % c == 0 for c in conds)
        if down is not None:
            got, den = down
            for r, g in zip(rows, got.tolist()):
                assert poly([Fraction(c, den) for c in g], d, big_e) == \
                    poly(r, big_e, big_e)


# ---------------------------------------------------------------------------
# large conductors stay fast and small

_LARGE = """
import json, re, time
from pathlib import Path
from charcond.cyclotomic import Cyclotomic
out = {}
for e in (997, 1000):
    t = time.perf_counter()
    z = Cyclotomic.zeta(e)
    assert z * z.conjugate() == 1
    out[f"product {e}"] = time.perf_counter() - t
    t = time.perf_counter()
    s = z + z.conjugate()
    out[f"sum {e}"] = time.perf_counter() - t
    assert s.order == e and s == s.conjugate()
status = Path("/proc/self/status").read_text()
out["peak_mb"] = int(re.search(r"VmHWM:\\s*(\\d+)", status).group(1)) / 1024
print(json.dumps(out))
"""


def test_large_conductors_need_little_time_and_memory():
    run = run_fresh(_LARGE, timeout=60)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert got.pop("peak_mb") < 100
    assert all(t < 1.0 for t in got.values()), got
