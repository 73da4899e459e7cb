"""Root-conductor bounds on exact radical values, and the bound dataset.

Imports only `arith` and `errors`, so `charcond bound` never loads numpy;
`conductor` re-exports these names.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd, lcm, log10

from .arith import PRIME_TEST_BOUND, factor_integer, is_prime
from .errors import InvalidData


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


class RadicalValue:
    """An exact positive real of the form prod p_i^(e_i) with rational e_i.

    Equality is exact equality of the normalized factorizations.  Decimal
    rendering uses round-half-even at a configurable number of significant
    digits and never touches floating point for the decision digits.
    """

    def __init__(self, factors) -> None:
        norm: dict[int, Fraction] = {}
        for base, expo in dict(factors).items():
            expo = Fraction(expo)
            if expo == 0:
                continue
            for p, k in factor_integer(int(base)).items():
                norm[p] = norm.get(p, Fraction(0)) + k * expo
        self.factors = tuple(sorted((p, e) for p, e in norm.items() if e != 0))

    @classmethod
    def one(cls) -> "RadicalValue":
        return cls({})

    @classmethod
    def from_integer(cls, n: int) -> "RadicalValue":
        if n < 1:
            raise ValueError("radical values are positive")
        return cls({n: Fraction(1)} if n > 1 else {})

    @classmethod
    def from_rational(cls, q) -> "RadicalValue":
        q = Fraction(q)
        if q <= 0:
            raise ValueError("radical values are positive")
        return cls({q.numerator: Fraction(1), q.denominator: Fraction(-1)})

    def __mul__(self, other: "RadicalValue") -> "RadicalValue":
        merged: dict[int, Fraction] = dict(self.factors)
        for p, e in other.factors:
            merged[p] = merged.get(p, Fraction(0)) + e
        return RadicalValue(merged)

    def __pow__(self, expo) -> "RadicalValue":
        expo = Fraction(expo)
        return RadicalValue({p: e * expo for p, e in self.factors})

    def __eq__(self, other) -> bool:
        if not isinstance(other, RadicalValue):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def is_rational(self) -> bool:
        return all(e.denominator == 1 for _, e in self.factors)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        out = Fraction(1)
        for p, e in self.factors:
            out *= Fraction(p) ** int(e)
        return out

    def as_power_triple(self) -> tuple[int, int, int]:
        """(base, num, den) with value = base^(num/den), base not a proper power."""
        if not self.factors:
            return 1, 1, 1
        den = lcm(*(e.denominator for _, e in self.factors))
        nums = [int(e * den) for _, e in self.factors]
        g = gcd(*nums)
        if g == 0:
            return 1, 1, 1
        base = 1
        for (p, _), v in zip(self.factors, nums):
            base *= p ** (v // g)
        k = gcd(g, den)
        return base, g // k, den // k

    def exact_str(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for p, e in self.factors:
            if e == 1:
                parts.append(str(p))
            elif e.denominator == 1:
                parts.append(f"{p}^{e.numerator}")
            else:
                parts.append(f"{p}^({e})")
        return " * ".join(parts)

    def _fraction_power(self) -> tuple[Fraction, int]:
        """value = M^(1/D) for an exact positive Fraction M."""
        d = lcm(*(e.denominator for _, e in self.factors))
        m = Fraction(1)
        for p, e in self.factors:
            m *= Fraction(p) ** int(e * d)
        return m, d

    def decimal(self, digits: int = 12) -> str:
        """Significant-digit decimal string, round-half-even, exact decisions."""
        if digits < 1:
            raise ValueError("need at least one significant digit")
        if not self.factors:
            return "1." + "0" * (digits - 1)
        m, d = self._fraction_power()
        # exponent k with 10^k <= value < 10^(k+1)
        approx = sum(float(e) * log10(p) for p, e in self.factors)
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

    def __str__(self) -> str:
        return self.exact_str()

    def __repr__(self) -> str:
        return f"RadicalValue({self.exact_str()})"


@dataclass(frozen=True)
class BoundInputs:
    """Inputs for the root-conductor bound arithmetic.

    disc is |D| of the prime-degree field, q its degree, theta_degree and
    norm_f_theta describe the character below, and T is the optional
    per-degree cap on conductor norms.
    """

    disc: int
    q: int
    theta_degree: int
    norm_f_theta: int
    T: Fraction | None = None

    def __post_init__(self):
        if self.disc < 1 or self.theta_degree < 1 or self.norm_f_theta < 1:
            raise InvalidData("bound inputs must be positive")
        if self.q >= PRIME_TEST_BOUND or not is_prime(self.q):
            raise InvalidData(f"degree q = {self.q} must be prime")
        if self.T is not None and self.T <= 0:
            raise InvalidData("the norm cap T must be positive")


@dataclass(frozen=True)
class RestrictedBounds:
    """Both forms of the restricted-case bound, clearly labeled.

    `certified` carries the full disc factor; `stated` uses disc^(1/q).  The
    certified form is the one the downstream global constant uses.
    """

    certified: RadicalValue
    stated: RadicalValue


def bound_restricted_case(b: BoundInputs) -> RestrictedBounds:
    """Root-conductor bound when the character restricts irreducibly."""
    disc = RadicalValue.from_integer(b.disc)
    nf = RadicalValue.from_integer(b.norm_f_theta) ** Fraction(1, b.theta_degree)
    return RestrictedBounds(certified=disc * nf,
                            stated=(disc ** Fraction(1, b.q)) * nf)


def bound_induced_case(b: BoundInputs) -> RadicalValue:
    """Exact root conductor for the induced case: disc^(1/q) * N^(1/(q theta(1)))."""
    disc = RadicalValue.from_integer(b.disc) ** Fraction(1, b.q)
    nf = (RadicalValue.from_integer(b.norm_f_theta)
          ** Fraction(1, b.q * b.theta_degree))
    return disc * nf


def global_constant(disc: int, t) -> Fraction:
    """The effective constant C = disc * T."""
    t = Fraction(t)
    if disc < 1 or t <= 0:
        raise InvalidData("global constant needs positive inputs")
    return disc * t


def bound_dataset(name: str) -> dict:
    """A named bound dataset, as a new dict on every call."""
    if name.strip().lower() != "martinet-constants":
        raise InvalidData(f"unknown bound dataset {name!r}")
    return {
        "name": "martinet-constants",
        "disc": 14641,
        "T": Fraction(2 ** 15 * 23),
        "q": 5,
        "theta_degree": 1,
        "norm_f_theta": 1,
        "ramified_primes": [2, 11, 23],
    }
