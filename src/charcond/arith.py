"""Integer helpers by trial division: factorization, primality and divisors.

The integers that reach them are group orders, exponents, Dixon primes and
conductor norms, all small enough for trial division.  The module imports
nothing from the package, so every other module can use it.
"""

from functools import lru_cache
from math import isqrt


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


def is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


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
