"""The bisection decimal renderer, kept as an oracle for
`RadicalValue.decimal`.

It writes the value as M^(1/D) for an exact `Fraction` M, finds the decimal
exponent k with two exact loops from a float estimate, finds the mantissa
floor(value * 10^t) by binary search over the integers, and rounds half to
even with one exact comparison.  It shares nothing with the method under
test but the factorization it reads, so the two must return the same string
for every input.
"""

from fractions import Fraction
from math import floor, lcm, log10


def _nth_root_floor(a: int, b: int, n: int) -> int:
    """floor((a/b)^(1/n)) for positive integers, by exact binary search."""
    lo, hi = 0, 1
    while hi ** n * b <= a:
        hi *= 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid ** n * b <= a:
            lo = mid
        else:
            hi = mid
    return lo


def _fraction_power(value) -> tuple[Fraction, int]:
    """value = M^(1/D) for an exact positive Fraction M."""
    d = lcm(*(e.denominator for _, e in value.factors))
    m = Fraction(1)
    for p, e in value.factors:
        m *= Fraction(p) ** int(e * d)
    return m, d


def reference_decimal(value, digits: int = 12) -> str:
    """Significant-digit decimal string of a `RadicalValue`, round-half-even,
    exact decisions."""
    if digits < 1:
        raise ValueError("need at least one significant digit")
    m, d = _fraction_power(value)
    # exponent k with 10^k <= value < 10^(k+1)
    approx = sum(float(e) * log10(p) for p, e in value.factors)
    k = int(floor(approx))
    while m < Fraction(10) ** (k * d):
        k -= 1
    while m >= Fraction(10) ** ((k + 1) * d):
        k += 1
    t = digits - 1 - k
    # x = value * 10^t; mantissa = round_half_even(x)
    scaled = m * Fraction(10) ** (t * d)
    n0 = _nth_root_floor(scaled.numerator, scaled.denominator, d)
    # compare x with n0 + 1/2:  x >= n0+1/2  <=>  2^d * num >= (2 n0 + 1)^d * den
    lhs = 2 ** d * scaled.numerator
    rhs = (2 * n0 + 1) ** d * scaled.denominator
    if lhs > rhs:
        mant = n0 + 1
    elif lhs < rhs:
        mant = n0
    else:
        mant = n0 if n0 % 2 == 0 else n0 + 1
    if mant >= 10 ** digits:
        mant //= 10
        k += 1
    s = str(mant)
    if 0 <= k < digits:
        head, tail = s[:k + 1], s[k + 1:]
        return f"{head}.{tail}" if tail else head + ".0"
    if -4 <= k < 0:
        return "0." + "0" * (-k - 1) + s
    sign = "+" if k >= 0 else "-"
    return f"{s[0]}.{s[1:]}e{sign}{abs(k):02d}"
