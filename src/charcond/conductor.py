"""Artin conductor exponents, conductor ideals, and root-conductor bounds.

A ramification filtration is a descending chain G_0 >= G_1 >= ... of subgroups
attached to a prime; the conductor exponent of a character is

    f_p(chi) = (1/|G_0|) * sum_j (|G_j| chi(1) - chi(G_j)),

with chi(G_j) the sum of chi over G_j.  Exponents are exact integers (anything
else signals inconsistent data), conductor norms are exact big integers, and
the bound arithmetic is carried out on exact prime-power products with
fractional exponents; decimals are rendered only for display.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np

from .arith import PRIME_TEST_BOUND, factor_integer, is_prime
from .characters import (ClassFunction, CharacterTable, conjugacy_classes,
                         _same_group)
from .cyclotomic import int_dtype, values
from .errors import InvalidData, NonIntegralExponent, NotACharacter
from .groups import (FiniteGroup, Subgroup, build_from_table, load_group_file,
                     subgroup)

__all__ = [
    "RamificationFiltration", "GaloisContext", "FactoredConductor",
    "BoundInputs", "RadicalValue", "RestrictedBounds",
    "conductor_exponent", "artin_conductor", "unramified_triviality",
    "induced_conductor_norm", "root_conductor", "bound_restricted_case",
    "bound_induced_case", "global_constant", "verify_conductor_discriminant",
    "load_context", "parse_context_dict", "factor_integer",
]


# ---------------------------------------------------------------------------
# exact radical values


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

    def root(self, n: int) -> "RadicalValue":
        return self ** Fraction(1, n)

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
        den = 1
        for _, e in self.factors:
            den = den * e.denominator // gcd(den, e.denominator)
        nums = [int(e * den) for _, e in self.factors]
        g = 0
        for v in nums:
            g = gcd(g, v)
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
        d = 1
        for _, e in self.factors:
            d = d * e.denominator // gcd(d, e.denominator)
        m = Fraction(1)
        for p, e in self.factors:
            m *= Fraction(p) ** int(e * d)
        return m, d

    def _cmp_pow10(self, u: int) -> int:
        """Compare self against 10^u exactly; returns -1, 0, or 1."""
        m, d = self._fraction_power()
        lhs = m
        rhs = Fraction(10) ** (u * d)
        if lhs < rhs:
            return -1
        if lhs > rhs:
            return 1
        return 0

    def decimal(self, digits: int = 12) -> str:
        """Significant-digit decimal string, round-half-even, exact decisions."""
        if digits < 1:
            raise ValueError("need at least one significant digit")
        if not self.factors:
            return "1." + "0" * (digits - 1)
        m, d = self._fraction_power()
        # exponent k with 10^k <= value < 10^(k+1)
        import math
        approx = sum(float(e) * math.log10(p) for p, e in self.factors)
        k = int(math.floor(approx))
        while self._cmp_pow10(k) < 0:
            k -= 1
        while self._cmp_pow10(k + 1) >= 0:
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


# ---------------------------------------------------------------------------
# ramification data


def _require_prime(p: int) -> None:
    if p >= PRIME_TEST_BOUND:
        raise InvalidData(
            f"prime {p} is not below {PRIME_TEST_BOUND}, the exact-test bound")
    if not is_prime(p):
        raise InvalidData(f"{p} is not a prime")


@dataclass(frozen=True)
class RamificationFiltration:
    """A prime with residue norm and a descending chain G_0 >= G_1 >= ...

    The list may stop once it reaches the trivial subgroup; all later groups
    are implicitly trivial.  An empty list means the prime is unramified.
    """

    prime: int
    residue_norm: int
    groups: tuple[Subgroup, ...]

    def __post_init__(self):
        _require_prime(self.prime)
        n = self.residue_norm
        p = self.prime
        while n > 1 and n % p == 0:
            n //= p
        if n != 1:
            raise InvalidData(
                f"residue norm {self.residue_norm} is not a power of {self.prime}")
        if self.groups:
            parent = self.groups[0].parent
            if self.groups[0].order == 1:
                raise InvalidData("G_0 must be nontrivial; use an empty filtration")
            prev = None
            for sub in self.groups:
                if sub.parent is not parent:
                    raise InvalidData("filtration subgroups live in different groups")
                if prev is not None and not set(sub.elements) <= set(prev.elements):
                    raise InvalidData("filtration is not descending")
                prev = sub


@dataclass(frozen=True)
class GaloisContext:
    """A group playing Gal(L/M) with ramification data at finitely many primes."""

    group: FiniteGroup
    filtrations: tuple[RamificationFiltration, ...]
    name: str | None = None
    disc: int | None = None
    labels: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        seen = set()
        for f in self.filtrations:
            if f.prime in seen:
                raise InvalidData(f"duplicate filtration at prime {f.prime}")
            seen.add(f.prime)
            for sub in f.groups:
                if sub.parent is not self.group:
                    raise InvalidData(
                        "filtration subgroup lives outside the context group")


class FactoredConductor:
    """The conductor ideal as a map prime -> exponent with an exact norm."""

    def __init__(self, entries) -> None:
        # entries: iterable of (prime, exponent, residue_norm)
        items = sorted((p, e, rn) for p, e, rn in entries if e)
        self.entries = tuple(items)
        norm = 1
        for _, e, rn in items:
            norm *= rn ** e
        self.norm = norm

    @property
    def exponents(self) -> dict[int, int]:
        return {p: e for p, e, _ in self.entries}

    def radical(self) -> RadicalValue:
        out = RadicalValue.one()
        for _, e, rn in self.entries:
            out = out * RadicalValue({rn: Fraction(e)})
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, FactoredConductor):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "(1)"
        return " * ".join(f"{p}^{e}" if e > 1 else str(p)
                          for p, e, _ in self.entries)

    def __repr__(self) -> str:
        return f"FactoredConductor({self})"


def _character_subgroup_sum(chi: ClassFunction, sub: Subgroup) -> Fraction:
    """chi(S) = sum of chi over the subgroup; must come out rational."""
    part = conjugacy_classes(chi.group)
    counts = np.bincount(part.class_of[np.array(sub.elements, dtype=np.int64)],
                         minlength=len(part))
    dtype = int_dtype(sub.order * int(np.abs(chi.nums).max()))
    total = counts.astype(dtype) @ chi.nums.astype(dtype, copy=False)
    # rational exactly when every power-basis coordinate beyond the first is 0
    if total[1:].any():
        value = values(total[None], chi.e, chi.den)[0]
        raise NonIntegralExponent(
            f"character sum over a filtration group is irrational: {value}")
    return Fraction(int(total[0]), chi.den)


def conductor_exponent(chi: ClassFunction, filt: RamificationFiltration) -> int:
    """The exact conductor exponent of a character at one prime.

    Empty filtrations give 0.  A non-integral or negative result raises
    NonIntegralExponent: by integrality of Artin conductors this never happens
    for genuine Galois data, so it signals inconsistent inputs.
    """
    if not filt.groups:
        return 0
    if not _same_group(filt.groups[0].parent, chi.group):
        raise NotACharacter("character does not live on the filtration's group")
    deg = chi.at_identity()
    if not deg.is_rational():
        raise NotACharacter("class function has irrational degree")
    deg = deg.as_rational()
    total = Fraction(0)
    for sub in filt.groups:
        if sub.order == 1:
            break
        total += sub.order * deg - _character_subgroup_sum(chi, sub)
    f = total / filt.groups[0].order
    if f.denominator != 1 or f < 0:
        raise NonIntegralExponent(
            f"conductor exponent at {filt.prime} is {f}, not a nonnegative integer")
    return int(f)


def artin_conductor(chi: ClassFunction, ctx: GaloisContext) -> FactoredConductor:
    """The conductor ideal of a character over all primes of the context."""
    entries = []
    for filt in ctx.filtrations:
        e = conductor_exponent(chi, filt)
        if e:
            entries.append((filt.prime, e, filt.residue_norm))
    return FactoredConductor(entries)


def unramified_triviality(ctx: GaloisContext) -> bool:
    """True when every filtration is empty, forcing trivial conductors."""
    return all(not f.groups for f in ctx.filtrations)


def induced_conductor_norm(theta_degree: int, norm_f_theta: int,
                           disc: int) -> int:
    """Norm of the conductor of an induced character: disc^theta(1) * N(f_theta)."""
    if theta_degree < 1 or norm_f_theta < 1 or disc < 1:
        raise InvalidData("induced-conductor inputs must be positive")
    return disc ** theta_degree * norm_f_theta


def root_conductor(f: FactoredConductor, degree: int) -> RadicalValue:
    """The root conductor norm(f)^(1/degree) as an exact radical value."""
    if degree < 1:
        raise InvalidData("character degree must be positive")
    return f.radical() ** Fraction(1, degree)


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


def verify_conductor_discriminant(ctx: GaloisContext, table: CharacterTable,
                                  disc: int) -> bool:
    """Conductor-discriminant oracle: prod over Irr of norm(f_chi)^chi(1) == disc."""
    if not _same_group(table.group, ctx.group):
        raise NotACharacter("table does not belong to the context's group")
    prod = 1
    for chi in table:
        prod *= artin_conductor(chi, ctx).norm ** chi.degree
    return prod == disc


# ---------------------------------------------------------------------------
# JSON ingestion of ramification data


def parse_context_dict(data: dict, base_dir=None,
                       name: str | None = None) -> GaloisContext:
    """Build a context from the documented JSON shape.

    { "group": <path or inline table>, "primes": [ { "p": int,
      "residue_norm": int, "filtration": [[indices of G_0], [G_1], ...] } ],
      "disc": int, "labels": {...} }
    """
    if not isinstance(data, dict) or "group" not in data or "primes" not in data:
        raise InvalidData("context needs 'group' and 'primes' fields")
    spec = data["group"]
    if isinstance(spec, str):
        path = Path(spec)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        group = load_group_file(path)
    elif isinstance(spec, list):
        group = build_from_table(spec, name=name)
    else:
        raise InvalidData("'group' must be a file path or an inline table")
    filts = []
    for entry in _field(data["primes"], list, "'primes'"):
        if not isinstance(entry, dict) or "p" not in entry:
            raise InvalidData(f"bad prime entry {entry!r}")
        p = _field(entry["p"], int, "'p'")
        _require_prime(p)   # before the filtration subgroups are validated
        rn = _field(entry.get("residue_norm", p), int, "'residue_norm'")
        subs = tuple(
            subgroup(group, [_field(v, int, "a filtration element")
                             for v in _field(members, list, "a filtration group")])
            for members in _field(entry.get("filtration", []), list,
                                  "'filtration'"))
        filts.append(RamificationFiltration(p, rn, subs))
    disc = data.get("disc")
    return GaloisContext(group, tuple(filts), name=name,
                         disc=None if disc is None else _field(disc, int, "'disc'"),
                         labels=_field(data.get("labels", {}), dict, "'labels'"))


_JSON_TYPES = {int: "an integer", list: "a list", dict: "an object"}


def _field(value, kind: type, what: str):
    """A context-document field of JSON type `kind` (bools are not integers)."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise InvalidData(f"{what} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def load_context(path) -> GaloisContext:
    p = Path(path)
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except OSError as exc:
        raise InvalidData(f"cannot read context file {p}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidData(f"context file {p} is not valid JSON: {exc}") from exc
    return parse_context_dict(data, base_dir=p.parent, name=p.stem)
