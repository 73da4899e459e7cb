"""Integer helpers: factorization, primality, divisors, primitive roots and
the one search for primes p = 1 (mod e).

Primality is a deterministic Miller-Rabin test, because primes in
ramification data come from user input and may be large.  Factorization
trial-divides by small numbers only; what is left is certified prime by that
test, or taken to the root of a perfect power by `_iroot`, the one exact
integer root, or split by Pollard-Brent rho, and every factor rho finds is
checked by division, so the result is exact.  Each prime found is divided
out of the cofactor at once.  Divisors use trial division: the integers
that reach them are group orders and exponents, and their one caller,
`cyclotomic.cyclotomic_polynomial`, is memoized.  `primes_1_mod` serves both
prime searches, Dixon's upward and the Gram products' downward from 2^26.
Nothing here is memoized.  The module imports nothing from the package but
its exception types, so every other module can use it.
"""

from math import gcd, log2

from .errors import InvalidData

# trial division stops here; a cofactor below its square is then prime
_TRIAL_LIMIT = 1 << 10
# Pollard-Brent rho gives up on a cofactor after about this many steps
_RHO_STEPS = 1 << 18


def factor_integer(n: int) -> dict[int, int]:
    """Exact prime factorization of a positive integer.

    Raises InvalidData when a cofactor is at least PRIME_TEST_BOUND and
    passes the primality test (it cannot be certified prime), or when rho
    cannot split a composite cofactor within its step budget.
    """
    if n < 1:
        raise ValueError("can only factor positive integers")
    out: dict[int, int] = {}
    rest = n
    for d in range(2, _TRIAL_LIMIT):
        if d * d > rest:
            break
        while rest % d == 0:
            out[d] = out.get(d, 0) + 1
            rest //= d
    while rest > 1:
        # a prime factor of rest: the root of a perfect power, or else the
        # smaller side of a split by rho, until the test certifies a prime
        m = rest
        while m >= _TRIAL_LIMIT * _TRIAL_LIMIT and (
                (root := _power_root(m)) or not _is_probable_prime(m)):
            m = root or min(d := _split(m), m // d)
        if m >= PRIME_TEST_BOUND:
            raise InvalidData(
                f"cannot certify the factor {m} of {n} as prime: it is not "
                f"below {PRIME_TEST_BOUND}, the exact-test bound")
        while rest % m == 0:
            out[m] = out.get(m, 0) + 1
            rest //= m
    return dict(sorted(out.items()))


def _power_root(m: int) -> int | None:
    """r with m = r^k for the least prime k that has one, or None; m has no
    factor below _TRIAL_LIMIT = 2^10, so k < log2(m) / 10."""
    return next((r for k in filter(is_prime, range(2, m.bit_length() // 10 + 1))
                 if (r := _iroot(m, k)) ** k == m), None)


def _iroot(n: int, d: int) -> int:
    """floor(n^(1/d)) for an integer n >= 0, by Newton's method from above.

    A root of over about 64 + 2 log2(d) bits starts from the root of n's top
    half, so each level of the recursion takes one or two full steps.
    """
    s = n.bit_length() // (2 * d) - d.bit_length()
    if s > 32:
        # (floor((n >> ds)^(1/d)) + 1) * 2^s is above the root, and close
        # enough that the first step lands within one of it
        x = _iroot(n >> d * s, d) + 1 << s
    else:
        # 2^(log2(n)/d) with a relative margin far above the float's error;
        # the exact check doubles a start that is not above the root
        x = int(2 ** (log2(n + 1) / d + 2 ** -30)) + 1
        while x ** d <= n:
            x *= 2
    # each step stays at or above the root, and stops on it
    while (p := x ** (d - 1)) * x > n:
        x = ((d - 1) * x + n // p) // d
    return x


def _split(n: int) -> int:
    """A proper factor of a composite n with no factor below _TRIAL_LIMIT."""
    for c in range(1, 9):
        d = _brent_rho(n, c)
        if d is None:
            break
        if 1 < d < n and n % d == 0:
            return d
    raise InvalidData(f"cannot factor {n} within the step budget")


def _brent_rho(n: int, c: int) -> int | None:
    """Pollard-Brent rho on x -> x^2 + c from 2, products of 128 differences
    per gcd; returns a divisor of n (possibly n), or None past _RHO_STEPS."""
    y, r, q, g = 2, 1, 1, 1
    while g == 1:
        if r > _RHO_STEPS:
            return None
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = gcd(q, n)
            k += 128
        r *= 2
    if g == n:
        # the batch overshot: replay it one difference at a time
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(abs(x - ys), n)
    return g


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
    return _is_probable_prime(n)


def _is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the 13 bases; False proves an odd n > 41 composite."""
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


def primes_1_mod(e: int, ts):
    """The primes 1 + e*t for t in the iterable ts, in the order of ts."""
    return (1 + e * t for t in ts if is_prime(1 + e * t))


def primitive_root(q: int) -> int:
    """The smallest generator of the units modulo the prime q."""
    halves = [(q - 1) // r for r in factor_integer(q - 1)]
    return next(g for g in range(1, q) if all(pow(g, h, q) != 1 for h in halves))
