"""Integer helpers: factorization, primality and divisors.

Factorization and divisors use trial division: the integers that reach them
are group orders, exponents, Dixon primes and conductor norms.  Primality is
a deterministic Miller-Rabin test, because primes in ramification data come
from user input and may be large.  The module imports nothing from the
package, so every other module can use it.
"""

from functools import lru_cache


def factor_integer(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine for conductor-sized values."""
    if n < 1:
        raise ValueError("can only factor positive integers")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# Miller-Rabin with the first 13 prime bases decides every n below this bound
# exactly (Sorenson and Webster 2015, psi_13).
PRIME_TEST_BOUND = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Exact primality for n < PRIME_TEST_BOUND; raises ValueError above it."""
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"{n} is too large for an exact primality test")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """The positive divisors of n in increasing order."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])
