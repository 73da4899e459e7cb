"""Exact arithmetic in cyclotomic fields Q(zeta_e), on integer arrays.

There is one implementation.  Values are rows of power-basis numerators: row
i holds the coordinates of a value on 1, z, ..., z^(phi(e)-1), z = zeta_e,
modulo the e-th cyclotomic polynomial, over one positive denominator.  The
kernels work on such rows: `lift` to a multiple of e, `descend` to a divisor
of e (with an exact check), `multiply`, `scaled`, `reduced` (lowest terms),
`align`, which puts several (conductor, numerators, den) parts over one
conductor and one denominator, and the Gram products below.  The map
x -> zeta_e from Z[x]/(x^e - 1) onto Z[zeta_e] is a ring map that commutes
with x -> x^-1, so sums of products and complex conjugation (index negation)
computed on coefficient rows, power-basis rows included, agree exactly with
the same operations on the values.  Arrays are int64 while an exact
Python-int bound on every partial sum is below 2^62, and Python ints (dtype
object) otherwise (`int_dtype`).

On the table paths those bounds are integers, not rescans of the arrays:
`_bound` takes a bound on each operand's entries, and `_matmul`, `lift` and
`scaled` take one when the caller knows it; each must be at least the true
largest |entry|.  A character value is a sum of chi(1) e-th roots of unity,
so `characters._table_bound` reads a table's bound off its degrees, and so
of every array of its rows that keeps them.  The kernels scan (`_absmax`)
an operand given no bound, as the value-level and public paths do with
arrays from outside.

Gram products, sum_c w_c a_c conj(b_c) over the classes for every pair of
rows (`gram` and its diagonal `gram_diagonal`), are computed by evaluation
and interpolation modulo primes P = 1 (mod e) below 2^26, largest first
(`arith.primes_1_mod`).  Modulo such a P, Phi_e splits into distinct linear
factors, so Z[zeta_e]/(P) is F_P^phi(e), one coordinate per primitive root
omega^u, and complex conjugation takes u to -u: a Gram product is one
batched int64 matmul over the classes, coordinate by coordinate.  An exact
bound on every numerator of the result decides how many primes to use; once
their product exceeds twice the bound, the Chinese remainder theorem and the
symmetric range return the integers themselves.  The steps are shared:
`_evaluate`, the products at the roots (`_gram_values`, `_diagonal_values`)
and `_crt`, which interpolates several products with one matmul per prime
and recovers them all, with primes for the largest bound, each of the dtype
of its own bound.  The normal pairs of one group in
`clifford` take their four Gram products from one such pass for the whole
group, and Gallagher's products of all its pairs of prime index from
another, which evaluates only the rows it reads.  `characters._check_table` reads a
table's evaluations directly and never interpolates.

There is one builder.  `values` turns rows into `Cyclotomic`s, each in
lowest terms at its minimal conductor, so that equality and hashing are
component comparisons and a rational value always reports conductor 1.
`minimal_conductors` finds the conductors of a whole batch at once, with one
Galois generator per prime step, and each conductor found costs one
`descend`.  A `Cyclotomic` is a scalar view of one row: its sums, products
and Galois images are the kernels above on one row, then `values`.  The same
search gives `_value_keys`, integer keys that sort rows as `sort_key` sorts
their values, and `_root_keys(e)` keeps those of the e-th roots of unity.

Every memo of conductor data, the cyclotomic polynomials included, is a
`_conductor_cache`, bounded in entries and in bytes of arrays.

Everything is integer/Fraction exact with no floating point anywhere.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from fractions import Fraction
from functools import wraps
from itertools import accumulate, islice
from math import gcd, lcm, prod

import numpy as np

from .arith import divisors, factor_integer, primes_1_mod, primitive_root
from .errors import InternalContradiction
from .groups import unique_sorted

__all__ = ["Cyclotomic", "align", "cyclotomic_polynomial", "cyclo_sum", "gram",
           "gram_diagonal", "int_dtype", "minimal_conductors", "values"]


# Each conductor cache keeps at most its own count of results and at most
# this many bytes of arrays, evicting the least recently used first.  A sweep
# round plus the largest catalog tables touches 24 cyclotomic_polynomial, 24
# _power_array, 45 _rebase_data, 24 _evaluation_data, 47 _fold_bound, 24
# _search_steps and 24 _root_keys keys, well under a megabyte in all; one
# conductor near 1000 needs 8 MB of power table and as much of root keys.
# They are the package's only memos of conductor data.
_CACHE_BYTES = 1 << 25
_CacheInfo = namedtuple("_CacheInfo", "hits misses maxsize currsize")


def _conductor_cache(maxsize: int):
    """Memoize a function of conductors within `maxsize` results and
    _CACHE_BYTES of arrays, each made read-only; `cache_info()` reads like
    `lru_cache`'s."""
    def wrap(fn):
        memo: OrderedDict = OrderedDict()   # args -> (result, bytes)
        stats = {"hits": 0, "misses": 0, "bytes": 0}

        @wraps(fn)
        def cached(*args):
            if args in memo:
                memo.move_to_end(args)
                stats["hits"] += 1
                return memo[args][0]
            stats["misses"] += 1
            out = fn(*args)
            arrays = [a for a in (out if isinstance(out, tuple) else (out,))
                      if isinstance(a, np.ndarray)]
            for a in arrays:
                a.setflags(write=False)
            size = sum(a.nbytes for a in arrays)
            memo[args] = (out, size)
            stats["bytes"] += size
            while len(memo) > maxsize or (stats["bytes"] > _CACHE_BYTES
                                          and len(memo) > 1):
                stats["bytes"] -= memo.popitem(last=False)[1][1]
            return out

        cached.cache_info = lambda: _CacheInfo(stats["hits"], stats["misses"],
                                               maxsize, len(memo))
        return cached
    return wrap


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # den is monic; division must be exact over the integers
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("polynomial division was not exact")
    return out


@_conductor_cache(256)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Integer coefficients of the e-th cyclotomic polynomial, ascending degree.

    Computed by the divisibility recursion: x^e - 1 divided by the cyclotomic
    polynomials of all proper divisors of e.
    """
    if e < 1:
        raise ValueError("conductor must be a positive integer")
    if e == 1:
        return (-1, 1)
    poly: list[int] = [-1] + [0] * (e - 1) + [1]
    for d in divisors(e)[:-1]:
        poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _phi(e: int) -> int:
    return len(cyclotomic_polynomial(e)) - 1


@_conductor_cache(256)
def _rebase_data(e: int, d: int):
    """Pivots and exact inverse for rewriting conductor e in conductor d.

    Returns (pivots, inv, a bound on inv, den, cols) for `descend`: cols[c]
    is zeta_d^c on the conductor-e basis, pivots are the first phi(d)
    coordinates on which the cols are independent, and inv / den inverts
    cols at the pivots.  One Gauss-Jordan elimination of [cols | I] over Q
    gives both: the pivot columns of the reduced form, and the inverse in
    place of I.
    """
    # a copy, so that the cache does not keep the whole power table alive
    cols = _power_array(e)[::e // d][:_phi(d)].copy()
    n = len(cols)
    a = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(cols.tolist())]
    pivots: list[int] = []
    for c in range(_phi(e)):
        r = len(pivots)
        piv = next((i for i in range(r, n) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [v / a[r][c] for v in a[r]]
        for i in range(n):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        pivots.append(c)
        if len(pivots) == n:
            break
    if len(pivots) != n:
        raise InternalContradiction("rebase basis not of full rank")
    den = lcm(*(v.denominator for row in a for v in row[-n:]))
    inv = _int_array([[int(v * den) for v in row[-n:]] for row in a])
    return _int_array(pivots), inv, _absmax(inv), den, cols


def _coerce(value) -> "Cyclotomic | None":
    if isinstance(value, Cyclotomic):
        return value
    if isinstance(value, (int, Fraction)):
        return Cyclotomic.from_rational(value)
    return None


class Cyclotomic:
    """An exact element of Q(zeta_e), always stored at its minimal conductor."""

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coeffs) -> None:
        vals = [Fraction(c) for c in coeffs]
        if len(vals) != _phi(order):
            raise ValueError(
                f"conductor {order} needs {_phi(order)} coefficients, got {len(vals)}")
        den = lcm(1, *(v.denominator for v in vals))
        (x,) = values(_int_array([[int(v * den) for v in vals]]), order, den)
        for slot in self.__slots__:
            object.__setattr__(self, slot, getattr(x, slot))

    @classmethod
    def _lowest(cls, order: int, nums, den: int) -> "Cyclotomic":
        """nums / den in lowest terms; order must be the minimal conductor."""
        g = gcd(den, *nums)
        self = object.__new__(cls)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "nums", tuple(v // g for v in nums))
        object.__setattr__(self, "den", den // g)
        return self

    @classmethod
    def from_rational(cls, value) -> "Cyclotomic":
        f = Fraction(value)
        return cls._lowest(1, (f.numerator,), f.denominator)

    @classmethod
    def zero(cls) -> "Cyclotomic":
        return cls._lowest(1, (0,), 1)

    @classmethod
    def one(cls) -> "Cyclotomic":
        return cls._lowest(1, (1,), 1)

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "Cyclotomic":
        """The root of unity zeta_order**power."""
        if order < 1:
            raise ValueError("order must be positive")
        return values(_power_array(order)[power % order][None], order)[0]

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.nums)

    def coeff_pairs(self) -> list[list[int]]:
        return [[f.numerator, f.denominator] for f in self.coeffs]

    def __setattr__(self, *_):
        raise AttributeError("Cyclotomic is immutable")

    def __reduce__(self):
        # copies and pickles rebuild through the constructor, not __setattr__
        return (Cyclotomic, (self.order, self.coeffs))

    # ring operations ------------------------------------------------------

    def __add__(self, other) -> "Cyclotomic":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return cyclo_sum((self, o))

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic._lowest(self.order, [-v for v in self.nums], self.den)

    def __sub__(self, other) -> "Cyclotomic":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "Cyclotomic":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "Cyclotomic":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        e, (a, b), den = align((x.order, _int_array([x.nums]), x.den)
                               for x in (self, o))
        return values(multiply(a, b, e), e, den * den)[0]

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Cyclotomic":
        if n < 0:
            raise ValueError("negative powers are not supported")
        result = Cyclotomic.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, zeta -> zeta^(-1)."""
        return self.galois(-1)

    def galois(self, k: int) -> "Cyclotomic":
        """Apply the automorphism zeta -> zeta^k; k must be prime to the conductor."""
        if gcd(k, self.order) != 1:
            raise ValueError(f"{k} is not prime to the conductor {self.order}")
        gal = _galois_matrix(self.order, k)
        return values(_matmul(_int_array([self.nums]), gal), self.order,
                      self.den)[0]

    # predicates and conversions -------------------------------------------

    def is_rational(self) -> bool:
        return self.order == 1

    def as_rational(self) -> Fraction:
        if self.order != 1:
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    def is_integer(self) -> bool:
        return self.order == 1 and self.den == 1

    def as_integer(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self} is not a rational integer")
        return self.nums[0]

    def __bool__(self) -> bool:
        return any(self.nums)

    def __eq__(self, other) -> bool:
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return (self.order, self.nums, self.den) == (o.order, o.nums, o.den)

    def __hash__(self) -> int:
        if self.order == 1:
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.order, self.nums, self.den))

    def sort_key(self):
        # rationals first, larger values leading, so trivial characters sort
        # ahead of sign-like rows; irrational values order by conductor
        if self.order == 1:
            return (1, Fraction(-self.nums[0], self.den))
        return (self.order, self.den, self.nums)

    # rendering -------------------------------------------------------------

    def __str__(self) -> str:
        if self.order == 1:
            return str(Fraction(self.nums[0], self.den))
        sym = f"z{self.order}"
        parts = []
        for i in range(len(self.nums) - 1, -1, -1):
            c = Fraction(self.nums[i], self.den)
            if c == 0:
                continue
            if i == 0:
                body = str(abs(c))
            else:
                mag = abs(c)
                coef = "" if mag == 1 else f"{mag}*"
                body = f"{coef}{sym}" + (f"^{i}" if i > 1 else "")
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"Cyclotomic({self})"


def cyclo_sum(items) -> Cyclotomic:
    """Exact sum of many cyclotomic values: one `align` of their parts by
    `_value_parts`, then one sum over a zero row and the aligned rows, so that
    no values sum to 0."""
    e, nums, den = align(_value_parts(list(map(_coerce, items)))[1])
    rows = np.concatenate([np.zeros((1, _phi(e)), dtype=np.int64), *nums])
    total = _matmul(np.ones((1, len(rows)), dtype=np.int64), rows)
    return values(total, e, den)[0]


# ---------------------------------------------------------------------------
# batched values: rows of power-basis numerators

_INT64_LIMIT = 1 << 62


def int_dtype(bound: int):
    """int64 when `bound`, an exact bound on every partial sum, is below 2^62;
    Python ints (dtype object) otherwise."""
    return np.int64 if bound < _INT64_LIMIT else object


def _absmax(a: np.ndarray) -> int:
    """Largest |entry|, at least 1: a bound factor that every entry fits in,
    so that a product of bounds covers each operand even beside a zero one."""
    return max(1, int(np.abs(a).max())) if a.size else 1


def _int_array(rows) -> np.ndarray:
    """Python integers as a read-only array, int64 when they are small enough."""
    a = np.array(rows, dtype=object)
    a = a.astype(int_dtype(_absmax(a)))
    a.setflags(write=False)
    return a


@_conductor_cache(64)
def _power_array(e: int) -> np.ndarray:
    """Row m holds the power-basis numerators of zeta_e^m, m in 0..e-1: shape
    (e, phi(e)).

    Built by the shift recurrence x^(m+1) = x * x^m modulo the monic Phi_e; a
    step grows entries by at most the factor 1 + max|Phi_e|, so rows switch to
    Python ints before int64 could overflow.
    """
    mod = cyclotomic_polynomial(e)
    phi = len(mod) - 1
    low = _int_array([mod[:phi]])[0]
    growth = 1 + _absmax(low)
    out = np.eye(e, phi, dtype=low.dtype)
    for m in range(phi, e):
        if out.dtype != object and _absmax(out[m - 1]) * growth >= _INT64_LIMIT:
            out = out.astype(object)
        out[m, 1:] = out[m - 1, :-1]
        out[m] -= out[m - 1, -1] * low
    return out


def _matmul(a: np.ndarray, b: np.ndarray, bound_a: int | None = None,
            bound_b: int | None = None) -> np.ndarray:
    """Exact a @ b: int64 when a.shape[-1] * bound_a * bound_b, a bound on
    every sum, is below 2^62, Python ints otherwise.  A bound given must be
    at least the largest |entry| of its operand (a table's bound for its
    rows and gathers, a count's largest possible value for a count matrix),
    and an operand given none is scanned."""
    bound_a = _absmax(a) if bound_a is None else bound_a
    bound_b = _absmax(b) if bound_b is None else bound_b
    dtype = int_dtype(a.shape[-1] * bound_a * bound_b)
    return a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)


def scaled(a: np.ndarray, c: int, bound: int | None = None) -> np.ndarray:
    """Exact a * c for an integer c, switching to Python ints when needed;
    bound, at least the largest |entry| of a, is taken by a scan when not
    given."""
    if c == 1:
        return a
    bound = _absmax(a) if bound is None else bound
    return a.astype(int_dtype(bound * max(1, abs(c))), copy=False) * c


def reduced(nums: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """nums / den in lowest terms (den > 0), entries int64 when they fit."""
    if den != 1:
        g = gcd(den, int(np.gcd.reduce(nums, axis=None)))
        if g > 1:
            if g >= _INT64_LIMIT:
                nums = nums.astype(object)
            nums, den = nums // g, den // g
    return nums.astype(int_dtype(_absmax(nums)), copy=False), den


def lift(nums: np.ndarray, e: int, big: int,
         bound: int | None = None) -> np.ndarray:
    """Power-basis numerators at conductor e rewritten at conductor big, e | big;
    bound, at least their largest |entry|, is taken by a scan when not
    given."""
    if big % e:
        raise ValueError(f"conductor {e} does not divide {big}")
    if e == big:
        return nums
    return _matmul(nums, _power_array(big)[::big // e][:_phi(e)], bound,
                   _fold_bound(big, big))


def descend(nums: np.ndarray, e: int, d: int) -> tuple[np.ndarray, int] | None:
    """Power-basis numerators at conductor e rewritten at conductor d, d | e.

    Returns (numerators, extra denominator), or None unless every value lies
    in Q(zeta_d).  One product with the pseudo-inverse of `_rebase_data`,
    then the exact check that the candidate reproduces every coordinate; the
    one scan of nums bounds both products.
    """
    pivots, inv, inv_bound, den, cols = _rebase_data(e, d)
    bound = _absmax(nums)
    got = _matmul(nums[..., pivots], inv, bound, inv_bound)
    if not (_matmul(got, cols, len(pivots) * bound * inv_bound, _fold_bound(e, e))
            == scaled(nums, den, bound)).all():
        return None
    return got, den


def align(parts, e: int = 1) -> tuple[int, list[np.ndarray], int]:
    """(conductor, numerators, den) triples over one conductor, the lcm of
    theirs and e, and one denominator, the lcm of theirs: that conductor, each
    part's numerators there by `lift`, scaled to that denominator by `scaled`,
    and the denominator."""
    parts = list(parts)
    e = lcm(e, *(c for c, _, _ in parts))
    den = lcm(1, *(d for _, _, d in parts))
    return e, [scaled(lift(nums, c, e), den // d) for c, nums, d in parts], den


def _value_parts(vals) -> tuple[list[list[int]], list[tuple]]:
    """`Cyclotomic` values as `align` parts, one per distinct conductor over
    the values' common denominator, so that `align` lifts each conductor
    once, and the indices of the values in each part."""
    den = lcm(1, *(v.den for v in vals))
    groups = {}
    for i, v in enumerate(vals):
        groups.setdefault(v.order, []).append(i)
    return list(groups.values()), [
        (c, _int_array([[x * (den // vals[i].den) for x in vals[i].nums]
                        for i in at]), den) for c, at in groups.items()]


def multiply(a: np.ndarray, b: np.ndarray, e: int) -> np.ndarray:
    """Power-basis numerators of the products of corresponding rows of a and
    b, values in Q(zeta_e).

    A convolution of the coefficient rows, then one product with the power
    table to fold x^m (m < 2 phi(e) - 1) back onto the power basis.
    """
    phi = a.shape[-1]
    dtype = int_dtype(phi * _absmax(a) * _absmax(b))
    a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
    conv = np.zeros(a.shape[:-1] + (2 * phi - 1,), dtype=dtype)
    for i in range(phi):
        conv[..., i:i + phi] += a[..., i:i + 1] * b
    return _matmul(conv, _power_array(e)[np.arange(2 * phi - 1) % e])


# ---------------------------------------------------------------------------
# Gram products by evaluation at the primitive e-th roots of unity mod P

# `gram` works modulo primes P = 1 (mod e) below this bound, so that an int64
# sum of products of residues may run over 2^11 terms; a conductor whose
# power table fits in memory has hundreds of them
_PRIME_LIMIT = 1 << 26
_Evaluation = namedtuple("_Evaluation", "prime ev conj galois interp")


def _matmul_mod(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """x @ y mod p for int64 residues in [0, p), the contraction taken in
    chunks short enough that no int64 sum of products can overflow."""
    step = ((1 << 63) - 1) // (p - 1) ** 2
    out = x[..., :step] @ y[..., :step, :] % p
    for lo in range(step, x.shape[-1], step):
        out = (out + x[..., lo:lo + step] @ y[..., lo:lo + step, :] % p) % p
    return out


@_conductor_cache(64)
def _evaluation_data(e: int, i: int) -> _Evaluation:
    """Z[zeta_e] modulo the i-th largest prime P = 1 (mod e) below
    _PRIME_LIMIT, as F_P^phi(e).

    P does not divide e and F_P holds an omega of order e, so Phi_e has the
    phi(e) distinct roots omega^u mod P, u prime to e, and x -> omega^u maps
    Z[zeta_e]/(P) onto F_P^phi(e); complex conjugation becomes u -> -u.
    ev[s, j] = omega^(s u_j) evaluates coefficient rows, conj[j] is the index
    of -u_j, galois[s, j] that of a_s u_j for the generators a_s of (Z/e)^x
    in `_search_steps(e)`, and interp maps values back to power-basis
    numerators: the inverse DFT e^-1 omega^(-u m), taken at the units only,
    is a row of Z[x]/(x^e - 1) with the given values at the primitive roots
    and 0 at the others, hence the wanted row modulo Phi_e, and
    `_power_array(e)` folds it onto the power basis.
    """
    ts = range((_PRIME_LIMIT - 2) // e, 0, -1)
    p = next(islice(primes_1_mod(e, ts), i, None))
    omega = pow(primitive_root(p), (p - 1) // e, p)
    units = np.array([u for u in range(e) if gcd(u, e) == 1])
    powers = np.array([pow(omega, m, p) for m in range(e)], dtype=np.int64)
    ev = powers[np.outer(np.arange(e), units) % e]
    conj = np.searchsorted(units, -units % e)
    gens = [a for _, steps in _search_steps(e) for a in steps if a is not None]
    galois = np.searchsorted(units, np.outer(gens, units) % e)
    inverse = powers[np.outer(-units, np.arange(e)) % e] * pow(e, -1, p) % p
    interp = _matmul_mod(inverse, (_power_array(e) % p).astype(np.int64), p)
    return _Evaluation(p, ev, conj, galois, interp)


@_conductor_cache(256)
def _fold_bound(e: int, w: int) -> int:
    """The largest |entry| of the power-table rows of x^(s - t), 0 <= s, t < w.
    At w = e that is every row, so _fold_bound(e, e) bounds every gather of
    the power table, and n times it bounds the numerators of a sum of n e-th
    roots of unity, such as a character value of degree n."""
    return _absmax(_power_array(e)[np.arange(1 - w, w) % e])


def _bound(a: int, b: int, weight: int, e: int, w: int) -> int:
    """A bound on every power-basis numerator of sum_c w_c a_c conj(b_c) for
    rows a, b of width w whose entries are at most a and b, with weight =
    sum |w_c|: a product sum is at most weight a b, a power x^(s - t)
    collects at most w of them, and a numerator sums at most e powers times
    the power table.  a and b are the callers' bounds, never scans: the
    `characters._table_bound` of a table, of a gather, lift or induction of
    its rows; each must be at least the true largest |entry|, or the primes
    that `_crt` takes for it may not suffice."""
    return max(1, weight) * w * a * b * e * _fold_bound(e, w)


def _evaluate(a: np.ndarray, data: _Evaluation) -> np.ndarray:
    """Rows a of shape (n, k, w) at the primitive roots mod P: (phi, n, k)."""
    p = data.prime
    x = (a % p).astype(np.int64, copy=False)
    return _matmul_mod(x, data.ev[:a.shape[2]], p).transpose(2, 0, 1)


def _residues(wts: np.ndarray, p: int) -> np.ndarray:
    """Integer weights, int64 or Python ints of any size, mod p as int64:
    taken once per prime of a pass, for every product of the pass."""
    return (wts % p).astype(np.int64, copy=False)


def _gram_values(x: np.ndarray, y: np.ndarray, wts: np.ndarray,
                 data: _Evaluation) -> np.ndarray:
    """sum_c w_c x[u, i, c] conj(y[u, j, c]) at each primitive root u, from
    evaluations x (phi, ka, k) and y (phi, kb, k) and the weights mod P
    (`_residues`): one batched matmul over the classes, shape (phi, ka, kb)."""
    p = data.prime
    return _matmul_mod(x * wts % p, y[data.conj].transpose(0, 2, 1), p)


def _diagonal_values(x: np.ndarray, wts: np.ndarray, data: _Evaluation) -> np.ndarray:
    """sum_c w_c x[u, ..., c] conj(x[u, ..., c]), the diagonal of
    _gram_values(x, x, ...) over any leading axes: shape x.shape[:-1]."""
    p = data.prime
    return (x * wts % p * x[data.conj] % p).sum(axis=-1) % p


def _crt(e: int, bounds: list[int], residues) -> list[np.ndarray]:
    """Integer arrays from their values at the primitive roots: residues(data)
    gives them modulo data.prime, the k-th of shape (phi(e),) + S_k, with
    power-basis numerators bounded by bounds[k].  At each prime of
    `_evaluation_data(e, i)`, i = 0, 1, ..., one matmul interpolates all of
    them, until the primes' product exceeds twice the largest bound; then
    Garner's mixed-radix CRT and the symmetric range give the k-th, of shape
    S_k + (phi(e),) and dtype int_dtype(bounds[k])."""
    x, m, i = None, 1, 0
    while m <= 2 * max(bounds):
        data = _evaluation_data(e, i)
        p, got = data.prime, residues(data)
        r = _matmul_mod(np.concatenate([y.reshape(len(y), -1) for y in got],
                                       axis=1).T, data.interp, p)
        x = r if x is None else x.astype(object) + m * ((r - x) * pow(m, -1, p) % p)
        m, i = m * p, i + 1
    x, shapes = np.where(2 * x > m, x - m, x), [y.shape[1:] for y in got]
    ends = list(accumulate(map(prod, shapes)))
    return [x[lo:hi].reshape(s + x.shape[1:]).astype(int_dtype(b), copy=False)
            for lo, hi, s, b in zip([0] + ends, ends, shapes, bounds)]


def gram(a: np.ndarray, b: np.ndarray, weights, e: int) -> np.ndarray:
    """Power-basis numerators of sum_c w_c * a[i, c] * conj(b[j, c]).

    `a` (ka, k, w) and `b` (kb, k, w) are rows of coefficients in
    Z[x]/(x^e - 1) of one width w <= e, such as power-basis numerators
    (w = phi(e)).  The result has shape (ka, kb, phi(e)), int64 when
    `_bound` is below 2^62 and Python ints otherwise.

    It is computed in F_P^phi(e) for primes P = 1 (mod e) (see
    `_evaluation_data`): one matmul per operand evaluates it at the
    primitive roots, one batched matmul over the classes multiplies
    (`_gram_values`), one matmul interpolates (`_crt`).  Every
    numerator is an integer of absolute value at most the bound, so once the
    product of the primes exceeds twice the bound the residues determine it,
    and the CRT and the symmetric range recover it exactly.
    """
    wts = np.array([int(x) for x in weights], dtype=object)
    bound = _bound(_absmax(a), _absmax(b), abs(wts).sum(), e, a.shape[2])
    return _crt(e, [bound], lambda data: [_gram_values(
        _evaluate(a, data), _evaluate(b, data), _residues(wts, data.prime),
        data)])[0]


def gram_diagonal(a: np.ndarray, weights, e: int) -> np.ndarray:
    """The diagonal of gram(a, a, weights, e), shape (ka, phi(e)): the
    weighted sum of a[i, c] * conj(a[i, c]) at each primitive root
    (`_diagonal_values`)."""
    wts = np.array([int(x) for x in weights], dtype=object)
    bound = _bound(_absmax(a), _absmax(a), abs(wts).sum(), e, a.shape[2])
    return _crt(e, [bound], lambda data: [_diagonal_values(
        _evaluate(a, data), _residues(wts, data.prime), data)])[0]


# ---------------------------------------------------------------------------
# minimal conductors, and the one builder of `Cyclotomic` values


def _galois_matrix(e: int, k: int) -> np.ndarray:
    """sigma_k: zeta_e -> zeta_e^k on power-basis rows, one gather of the
    power table: row i is zeta_e^(i k)."""
    return _power_array(e)[np.arange(_phi(e)) * k % e]


@_conductor_cache(64)
def _search_steps(e: int) -> tuple[tuple[int, tuple], ...]:
    """For each prime q | e, the steps c -> c/q for c = e, e/q, ... while q | c.

    A step holds one unit k = 1 (mod c/q) whose restriction generates
    Gal(Q(zeta_c)/Q(zeta_(c/q))), or None where that group is trivial (q = 2,
    c = 2 mod 4).  With the steps before it, k generates
    Gal(Q(zeta_e)/Q(zeta_(c/q))).
    """
    out = []
    for q in factor_integer(e):
        steps, c = [], e
        while c % q == 0:
            d = c // q
            if d % q == 0:          # {1 + t d : t mod q} is cyclic of order q
                k = 1 + d
            elif q > 2:             # k = g (mod q), k = 1 (mod d): order q - 1
                k = 1 + d * ((primitive_root(q) - 1) * pow(d, -1, q) % q)
            else:
                k = None
            steps.append(k)
            c = d
        out.append((q, tuple(steps)))
    return tuple(out)


def minimal_conductors(nums: np.ndarray, e: int) -> np.ndarray:
    """The minimal conductor of each row of power-basis numerators at
    conductor e.

    A value lies in Q(zeta_(c/q)) when it is fixed by the generator of each
    step of `_search_steps` down to c/q, so each prime q takes steps while the
    rows stay fixed.  Q(zeta_a) and Q(zeta_b) meet in Q(zeta_gcd(a, b)), so
    the primes are independent.  One product with a phi(e) x phi(e) matrix
    per step, for all rows at once, bounded by one scan of nums; the matrix
    is not kept.
    """
    bound, fold = _absmax(nums), _fold_bound(e, e)
    cond = np.full(len(nums), e, dtype=np.int64)
    for q, steps in _search_steps(e):
        live = np.arange(len(nums))
        for k in steps:
            if k is not None:
                rows = nums[live]
                image = _matmul(rows, _galois_matrix(e, k), bound, fold)
                live = live[(image == rows).all(axis=1)]
            cond[live] //= q
    return cond


def at_minimal_conductors(nums: np.ndarray, e: int):
    """Rows of power-basis numerators at conductor e, grouped by minimal
    conductor d: yields (d, the rows' indices, their numerators at d, the
    extra denominator of those numerators), from one `minimal_conductors`
    search and one `descend` per conductor found."""
    cond = minimal_conductors(nums, e)
    for d in unique_sorted(cond).tolist():
        at = (cond == d).nonzero()[0]
        down = (nums[at], 1) if d == e else descend(nums[at], e, d)
        if down is None:
            raise InternalContradiction("a Galois-fixed value failed to descend")
        yield d, at, *down


def _value_keys(nums: np.ndarray, e: int) -> np.ndarray:
    """One integer sort key per row of power-basis numerators at conductor e
    that compares as `Cyclotomic.sort_key` does: [1, -q] for a rational q,
    else [d, the numerators at the minimal conductor d], zero-padded.  Raises
    unless every value is an integer of Q(zeta_e)."""
    keys = np.zeros((len(nums), 1 + nums.shape[1]), dtype=nums.dtype)
    for d, rows, got, extra in at_minimal_conductors(nums, e):
        if (got % extra).any():
            raise InternalContradiction(
                "table values are not integers of Q(zeta_exp(G))")
        got = got // extra
        if got.dtype == object:
            keys = keys.astype(object)
        keys[rows, 0] = d
        keys[rows, 1:1 + got.shape[1]] = -got if d == 1 else got
    return keys


@_conductor_cache(64)
def _root_keys(e: int) -> np.ndarray:
    """Row t is the `_value_keys` key of zeta_e^t, t in 0..e-1."""
    return _value_keys(_power_array(e), e)


def values(nums: np.ndarray, e: int, den: int = 1) -> list[Cyclotomic]:
    """Rows of power-basis numerators at conductor e over den > 0 as
    `Cyclotomic`s, each in lowest terms at its minimal conductor.

    Rational rows (zero beyond the first coordinate) are built in Python; the
    rest go through `at_minimal_conductors`.
    """
    rows = nums.tolist()
    out = [None] * len(rows)
    irrational = []
    for i, row in enumerate(rows):
        if any(row[1:]):
            irrational.append(i)
        else:
            out[i] = Cyclotomic._lowest(1, row[:1], den)
    if irrational:
        for d, at, got, extra in at_minimal_conductors(nums[irrational], e):
            for i, row in zip(at.tolist(), got.tolist()):
                out[irrational[i]] = Cyclotomic._lowest(d, row, den * extra)
    return out
