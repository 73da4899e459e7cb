"""Primality: a deterministic Miller-Rabin test against sympy."""

import time

import pytest
import sympy

from charcond.arith import PRIME_TEST_BOUND, is_prime

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
