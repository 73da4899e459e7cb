"""Root-conductor bounds on exact radical values, and the bound dataset.

Imports only `arith` and `errors`, so `charcond bound` never loads numpy;
`conductor` re-exports these names.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd, lcm, log10, prod

from .arith import PRIME_TEST_BOUND, _iroot, factor_integer, is_prime
from .errors import InvalidData


# a decimal of a root of degree d builds integers of about
# d * (digits + |log10 value|) decimal digits, and its cost grows faster than
# that size.  The slowest `bound` reports found under this cap, with all
# three roots near it (`--disc 2^13287 --q 2 --theta-degree 41 --norm-ftheta
# 7 --precision 1000`, or `--theta-degree 49 --precision 500`), take
# 0.57-0.63 s in a fresh interpreter on one CPU of a 2-vCPU Xeon.  `conduct`
# stays far below it: chi(1) <= 71 under the table caps.
MAX_DECIMAL_DIGITS = 250_000


def _exceeds(powers, r: int) -> bool:
    """Whether prod p^k over the pairs (p, k) of powers exceeds 10^r,
    decided exactly.  With b the bit length of p, 2^(k (b - 1)) <= p^k <
    2^(k b), and 8^r <= 10^r < 16^r: bit lengths settle it unless the
    product is within a factor 2^(sum k) of 10^r, and only then are both
    built, so an input far over the cap is refused before any large integer
    exists."""
    if r < 0:
        return True
    lo = sum(k * (p.bit_length() - 1) for p, k in powers)
    if lo >= 4 * r and lo > 0:
        return True
    if lo + sum(k for _, k in powers) <= 3 * r:
        return False
    return prod(p ** k for p, k in powers) > 10 ** r


class RadicalValue:
    """An exact positive real of the form prod p_i^(e_i) with rational e_i.

    Equality is exact equality of the normalized factorizations.  Decimal
    rendering uses round-half-even at a configurable number of significant
    digits.  For a value whose exponents have common denominator d, it takes
    one integer d-th root of value^d * 10^(t d); floats only seed that root
    and the decimal exponent, and the root's start, the number of digits and
    the half-even tie are each decided by an exact integer comparison.  The
    integers it builds have about d * (digits + |log10 value|) decimal
    digits, and a request over `MAX_DECIMAL_DIGITS` raises `InvalidData`;
    that cap is decided on integers too.
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

    def as_power_triple(self) -> tuple[int | Fraction, int, int]:
        """(base, num, den) with value = base^(num/den), num, den > 0 and the
        base not a proper power: an exact Fraction when an exponent is
        negative, else an int."""
        if not self.factors:
            return 1, 1, 1
        den = lcm(*(e.denominator for _, e in self.factors))
        nums = [int(e * den) for _, e in self.factors]
        g = gcd(*nums)
        base = prod(Fraction(p) ** (v // g)
                    for (p, _), v in zip(self.factors, nums))
        k = gcd(g, den)
        return (int(base) if base.denominator == 1 else base), g // k, den // k

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

    def check_decimal(self, digits: int) -> tuple[int, list[float]]:
        """Check a request for `decimal(digits)`: raise ValueError when
        digits < 1, and InvalidData when it would build integers of over
        `MAX_DECIMAL_DIGITS` decimal digits; else return the degree d of its
        root and log10 of each prime power of the value.  Each d |e| is an
        integer, so the size d (digits + sum |e| log10 p) is over the cap
        exactly when prod p^(d |e|) > 10^(cap - d digits) (`_exceeds`); the
        size the refusal prints is a float, for display only."""
        if digits < 1:
            raise ValueError("need at least one significant digit")
        d = lcm(*(e.denominator for _, e in self.factors))
        logs = [float(e) * log10(p) for p, e in self.factors]
        if _exceeds([(p, abs(int(e * d))) for p, e in self.factors],
                    MAX_DECIMAL_DIGITS - d * digits):
            size = d * (digits + sum(map(abs, logs)))
            raise InvalidData(
                f"{digits} digits of a root of degree {d} need integers of "
                f"{size:.0f} digits, over the cap of {MAX_DECIMAL_DIGITS}")
        return d, logs

    def decimal(self, digits: int = 12) -> str:
        """Significant-digit decimal string, round-half-even, exact decisions."""
        d, logs = self.check_decimal(digits)
        # value^d = num / den
        num = prod(p ** int(e * d) for p, e in self.factors if e > 0)
        den = prod(p ** int(-e * d) for p, e in self.factors if e < 0)
        # x = floor(value * 10^t) = floor((a/b)^(1/d)) has `digits` digits
        # exactly when 10^k <= value < 10^(k+1), for k = digits - 1 - t; the
        # float estimate of t is corrected until it does
        t = digits - 1 - floor(sum(logs))
        while True:
            a, b = num * 10 ** max(t * d, 0), den * 10 ** max(-t * d, 0)
            x = _iroot(a // b, d)
            if 10 ** (digits - 1) <= x < 10 ** digits:
                break
            t += 1 if x < 10 ** (digits - 1) else -1
        # round up past x + 1/2, and to even at it, by the sign of
        # value * 10^t - (x + 1/2), which is the sign of 2^d a - (2x + 1)^d b
        above = 2 ** d * a - (2 * x + 1) ** d * b
        if above > 0 or (above == 0 and x % 2 == 1):
            x += 1
        k = digits - 1 - t
        if x >= 10 ** digits:
            x //= 10
            k += 1
        s = str(x)
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


def _cases(b: BoundInputs) -> tuple[RestrictedBounds, RadicalValue]:
    """Both cases from one factorization of each input: the restricted
    bounds and the induced root conductor."""
    disc = RadicalValue.from_integer(b.disc)
    nf = RadicalValue.from_integer(b.norm_f_theta) ** Fraction(1, b.theta_degree)
    root = disc ** Fraction(1, b.q)
    return (RestrictedBounds(certified=disc * nf, stated=root * nf),
            root * nf ** Fraction(1, b.q))


def bound_restricted_case(b: BoundInputs) -> RestrictedBounds:
    """Root-conductor bound when the character restricts irreducibly."""
    return _cases(b)[0]


def bound_induced_case(b: BoundInputs) -> RadicalValue:
    """Exact root conductor for the induced case: disc^(1/q) * N^(1/(q theta(1)))."""
    return _cases(b)[1]


def global_constant(disc: int, t) -> Fraction:
    """The effective constant C = disc * T."""
    t = Fraction(t)
    if disc < 1 or t <= 0:
        raise InvalidData("global constant needs positive inputs")
    return disc * t


# the bound datasets by name: Martinet's constants for the real quintic field
# of conductor 11, disc 11^4 and per-degree norm cap T = 2^15 * 23
BOUND_DATASETS = {
    "martinet-constants": {
        "disc": 14641,
        "T": Fraction(2 ** 15 * 23),
        "q": 5,
        "theta_degree": 1,
        "norm_f_theta": 1,
        "ramified_primes": [2, 11, 23],
    },
}


def bound_dataset(name: str) -> dict:
    """A named bound dataset, as a new dict on every call."""
    if (key := name.strip().lower()) not in BOUND_DATASETS:
        raise InvalidData(f"unknown bound dataset {name!r}")
    return deepcopy({"name": key, **BOUND_DATASETS[key]})
