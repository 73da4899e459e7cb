"""Primality and factorization against sympy."""

import time
from itertools import count, islice

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from charcond.arith import (PRIME_TEST_BOUND, _iroot, factor_integer,
                            is_prime, primes_1_mod)
from charcond.characters import _dixon_prime
from charcond.cyclotomic import _PRIME_LIMIT, _evaluation_data
from charcond.errors import InvalidData

# Carmichael numbers, strong pseudoprimes to the first few prime bases, and
# large primes and composites up to the exact-test bound
HARD = [561, 1105, 2047, 1373653, 25326001, 3215031751, 2152302898747,
        3474749660383, 341550071728321, 3825123056546413051,
        318665857834031151167461, 3317044064679887385961979,
        2 ** 61 - 1, 2 ** 64 - 59, 2 ** 81 - 1]


def test_is_prime_matches_sympy():
    for n in list(range(-3, 20000)) + HARD:
        assert is_prime(n) == sympy.isprime(n), n


def test_large_prime_answers_fast():
    p = 1000000000000000003
    start = time.perf_counter()
    assert is_prime(p) and sympy.isprime(p)
    assert not is_prime(p * 1000003)
    assert time.perf_counter() - start < 1


def test_is_prime_refuses_beyond_the_exact_bound():
    # even numbers and multiples of small primes are still decided
    assert not is_prime(PRIME_TEST_BOUND + 1)
    with pytest.raises(ValueError):
        is_prime(2 ** 89 - 1)


def test_factor_integer_matches_sympy():
    # two primes near 10^9, a prime square past the trial bound, primes and
    # composites with all-small, mixed and all-large factors
    cases = list(range(1, 3000)) + HARD + [
        999999937 * 1000000007, 1000003 ** 2 * 999983, 600851475143,
        2 ** 64 + 1, 2 ** 67 - 1, 1000000000000000003,
        (2 ** 61 - 1) * (2 ** 31 - 1), 1023 * 1031 * 1031, 2 ** 40 * 3 ** 5]
    for n in cases:
        assert factor_integer(n) == sympy.factorint(n), n


def test_factor_two_primes_near_a_billion_fast():
    start = time.perf_counter()
    assert factor_integer(999999937 * 1000000007) == {999999937: 1,
                                                      1000000007: 1}
    assert factor_integer(1000000000000000003) == {1000000000000000003: 1}
    assert time.perf_counter() - start < 1


@settings(max_examples=60, deadline=None)
@given(st.integers(1025, 2 ** 32).map(sympy.nextprime), st.integers(1, 40),
       st.integers(1, 10 ** 12))
@example(65537, 100, 1)
@example(1031, 6, 1031 ** 2 * 1033 ** 4)
@example(2 ** 31 - 1, 30, (2 ** 31 - 1) * 1000003 ** 3)
def test_factor_prime_powers_matches_sympy(p, k, m):
    # a prime above the trial-division limit to a power, times a cofactor
    # that may share it or hold powers of its own
    assert factor_integer(p ** k * m) == sympy.factorint(p ** k * m)


def test_factor_a_large_prime_power_fast():
    start = time.perf_counter()
    assert factor_integer(65537 ** 400) == {65537: 400}
    assert factor_integer(1031 ** 2 * 65537 ** 400) == {1031: 2, 65537: 400}
    assert time.perf_counter() - start < 1


def test_iroot_is_the_floor_of_the_root():
    for n in [0, 1, 2, 7, 8, 9, 10 ** 40, 3 ** 333, 3 ** 333 - 1, 2 ** 6400]:
        for d in (1, 2, 3, 5, 64, 641):
            r = _iroot(n, d)
            assert r ** d <= n < (r + 1) ** d, (n, d)


def test_factor_refuses_what_it_cannot_certify():
    with pytest.raises(InvalidData, match="exact-test bound"):
        factor_integer(2 ** 89 - 1)
    with pytest.raises(InvalidData, match="exact-test bound"):
        factor_integer(6 * (2 ** 89 - 1))
    with pytest.raises(ValueError):
        factor_integer(0)


def brute_upward(e, order):
    """The least prime p = 1 (mod e) with p^2 > 4 order, counting up by one."""
    return next(p for p in count(2) if (p - 1) % e == 0
                and p * p > 4 * order and sympy.isprime(p))


def brute_downward(e, i):
    """The i-th largest prime p = 1 (mod e) below _PRIME_LIMIT, counting
    down by one."""
    found = (p for p in range(_PRIME_LIMIT - 1, 1, -1)
             if (p - 1) % e == 0 and sympy.isprime(p))
    return next(islice(found, i, None))


def test_primes_1_mod_follow_the_order_of_ts():
    assert list(primes_1_mod(4, range(1, 10))) == [5, 13, 17, 29, 37]
    assert list(primes_1_mod(4, range(9, 0, -1))) == [37, 29, 17, 13, 5]
    assert list(primes_1_mod(1, range(1, 12))) == [2, 3, 5, 7, 11]
    assert list(primes_1_mod(6, [])) == []


def test_dixon_primes_match_the_upward_search():
    for e in range(1, 301):
        for order in (1, e, 24 * e, 20000):
            assert _dixon_prime(e, order) == brute_upward(e, order), (e, order)


def test_evaluation_primes_match_the_downward_search():
    for e in range(1, 301):
        for i in range(3):
            assert _evaluation_data(e, i).prime == brute_downward(e, i), (e, i)
