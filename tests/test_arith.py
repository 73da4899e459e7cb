"""Primality and factorization against sympy."""

import time

import pytest
import sympy

from charcond.arith import PRIME_TEST_BOUND, factor_integer, is_prime
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


def test_factor_refuses_what_it_cannot_certify():
    with pytest.raises(InvalidData, match="exact-test bound"):
        factor_integer(2 ** 89 - 1)
    with pytest.raises(InvalidData, match="exact-test bound"):
        factor_integer(6 * (2 ** 89 - 1))
    with pytest.raises(ValueError):
        factor_integer(0)
