"""Exact arithmetic in cyclotomic fields Q(zeta_e), on integer arrays.

There is one implementation.  Values are rows of power-basis numerators: row
i holds the coordinates of a value on 1, z, ..., z^(phi(e)-1), z = zeta_e,
modulo the e-th cyclotomic polynomial, over one positive denominator.  The
kernels work on such rows: `lift` to a multiple of e, `descend` to a divisor
of e (with an exact check), `multiply`, `scaled`, `reduced` (lowest terms)
and `gram`; `encode` writes `Cyclotomic` values as rows in Z[x]/(x^e - 1) and
`power_basis` reduces such rows with one product with the power table.  The
map x -> zeta_e from Z[x]/(x^e - 1) onto Z[zeta_e] is a ring map that
commutes with x -> x^-1, so sums of products and complex conjugation (index
negation) computed on coefficient rows, power-basis rows included, agree
exactly with the same operations on the values.  Arrays are int64 while an
exact Python-int bound on every partial sum is below 2^62, and Python ints
(dtype object) otherwise (`int_dtype`).

There is one builder.  `values` turns rows into `Cyclotomic`s, each in
lowest terms at its minimal conductor, so that equality and hashing are
component comparisons and a rational value always reports conductor 1.
`minimal_conductors` finds the conductors of a whole batch at once, with one
Galois generator per prime step, and each conductor found costs one
`descend`.  A `Cyclotomic` is a scalar view of one row: its sums, products
and Galois images are the kernels above on one row, then `values`.

Everything is integer/Fraction exact with no floating point anywhere.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from fractions import Fraction
from functools import lru_cache, wraps
from math import gcd, lcm

import numpy as np

from .arith import divisors, factor_integer
from .errors import InternalContradiction

__all__ = ["Cyclotomic", "cyclotomic_polynomial", "cyclo_sum", "encode", "gram",
           "int_dtype", "minimal_conductors", "power_basis", "values"]


# Each conductor cache keeps at most its own count of results and at most
# this many bytes of arrays, evicting the least recently used first.  A sweep
# round plus the largest catalog tables touches 24 _power_array, 60
# _rebase_data, 24 _correlation_data and 22 _search_steps keys, well under a
# megabyte in all; one conductor near 1000 needs 8 MB of power table.
_CACHE_BYTES = 1 << 25
_CacheInfo = namedtuple("_CacheInfo", "hits misses maxsize currsize")


def _conductor_cache(maxsize: int):
    """Memoize a function of conductors within `maxsize` results and
    _CACHE_BYTES of arrays; `cache_info()` reads like `lru_cache`'s."""
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
            size = sum(a.nbytes for a in (out if isinstance(out, tuple) else (out,))
                       if isinstance(a, np.ndarray))
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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _phi(e: int) -> int:
    return len(cyclotomic_polynomial(e)) - 1


@_conductor_cache(256)
def _rebase_data(e: int, d: int):
    """Pivots and exact inverse for rewriting conductor e in conductor d.

    Returns (pivots, inv, den, cols) for `descend`: cols[c] is zeta_d^c on the
    conductor-e basis, pivots are the first phi(d) coordinates on which the
    cols are independent, and inv / den inverts cols at the pivots.  One
    Gauss-Jordan elimination of [cols | I] over Q gives both: the pivot
    columns of the reduced form, and the inverse in place of I.
    """
    # a copy, so that the cache does not keep the whole power table alive
    cols = _power_array(e)[::e // d][:_phi(d)].copy()
    cols.setflags(write=False)
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
    inv = [[int(v * den) for v in row[-n:]] for row in a]
    return _int_array(pivots), _int_array(inv), den, cols


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
        e = lcm(self.order, o.order)
        a, b = (lift(_int_array([x.nums]), x.order, e) for x in (self, o))
        return values(multiply(a, b, e), e, self.den * o.den)[0]

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
    """Exact sum of many cyclotomic values: one encoding, one sum, one
    reduction to the power basis."""
    vals = [_coerce(v) for v in items]
    coeffs, den = encode([vals])
    e = coeffs.shape[2]
    total = _matmul(np.ones((1, len(vals)), dtype=np.int64), coeffs[0])
    return values(power_basis(total, e), e, den)[0]


# ---------------------------------------------------------------------------
# batched values: rows of power-basis numerators, and rows in Z[x]/(x^e - 1)

_INT64_LIMIT = 1 << 62
# at most this many coefficient products in one block of `gram`
_GRAM_BLOCK = 1 << 15


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
    out.setflags(write=False)
    return out


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact a @ b: int64 when a bound on every sum is below 2^62, Python ints
    otherwise."""
    dtype = int_dtype(a.shape[-1] * _absmax(a) * _absmax(b))
    return a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)


def scaled(a: np.ndarray, c: int) -> np.ndarray:
    """Exact a * c for an integer c, switching to Python ints when needed."""
    if c == 1:
        return a
    return a.astype(int_dtype(_absmax(a) * max(1, abs(c))), copy=False) * c


def reduced(nums: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """nums / den in lowest terms (den > 0), entries int64 when they fit."""
    if den != 1:
        g = gcd(den, int(np.gcd.reduce(nums, axis=None)))
        if g > 1:
            if g >= _INT64_LIMIT:
                nums = nums.astype(object)
            nums, den = nums // g, den // g
    return nums.astype(int_dtype(_absmax(nums)), copy=False), den


def power_basis(coeffs: np.ndarray, e: int) -> np.ndarray:
    """Power-basis numerators of rows of coefficients in Z[x]/(x^e - 1).

    One product with `_power_array(e)`: shape (..., e) -> (..., phi(e)).
    """
    return _matmul(coeffs, _power_array(e))


def lift(nums: np.ndarray, e: int, big: int) -> np.ndarray:
    """Power-basis numerators at conductor e rewritten at conductor big, e | big."""
    if big % e:
        raise ValueError(f"conductor {e} does not divide {big}")
    if e == big:
        return nums
    return _matmul(nums, _power_array(big)[::big // e][:_phi(e)])


def descend(nums: np.ndarray, e: int, d: int) -> tuple[np.ndarray, int] | None:
    """Power-basis numerators at conductor e rewritten at conductor d, d | e.

    Returns (numerators, extra denominator), or None unless every value lies
    in Q(zeta_d).  One product with the pseudo-inverse of `_rebase_data`,
    then the exact check that the candidate reproduces every coordinate.
    """
    pivots, inv, den, cols = _rebase_data(e, d)
    got = _matmul(nums[..., pivots], inv)
    if not np.array_equal(_matmul(got, cols), scaled(nums, den)):
        return None
    return got, den


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


def encode(rows) -> tuple[np.ndarray, int]:
    """Rows of values as one integer array of shape (rows, values, e), and den.

    e is the lcm of the value conductors.  A value of conductor d puts its
    power-basis numerator i, scaled to the common denominator den, at index
    i * e / d.  Entries are int64 when they are small enough, Python ints
    (dtype object) otherwise.
    """
    rows = [tuple(r) for r in rows]
    vals = [v for r in rows for v in r]
    e = lcm(1, *(v.order for v in vals))
    den = lcm(1, *(v.den for v in vals))
    where, coeffs = [], []
    for pos, v in zip(range(0, len(vals) * e, e), vals):
        step, f = e // v.order, den // v.den
        for i, c in enumerate(v.nums):
            if c:
                where.append(pos + i * step)
                coeffs.append(c * f)
    dtype = int_dtype(max(map(abs, coeffs), default=0))
    flat = np.zeros(len(vals) * e, dtype=dtype)
    flat[where] = coeffs
    return flat.reshape(len(rows), len(rows[0]) if rows else 0, e), den


@_conductor_cache(64)
def _correlation_data(e: int, w: int):
    """How `gram` folds x^(s - t), 0 <= s, t < w, onto the power basis.

    Returns the order that sorts the w*w pairs (s, t) by m = (s - t) mod e, the
    start of each run of equal m, and the power-table rows of those m.
    """
    s, t = np.divmod(np.arange(w * w), w)
    m = (s - t) % e
    order = np.argsort(m, kind="stable")
    ms, starts = np.unique(m[order], return_index=True)
    table = _power_array(e)[ms]
    for a in (order, starts, table):
        a.setflags(write=False)
    return order, starts, table


def gram(a: np.ndarray, b: np.ndarray, weights, e: int | None = None) -> np.ndarray:
    """Power-basis numerators of sum_c w_c * a[i, c] * conj(b[j, c]).

    `a` (ka, k, w) and `b` (kb, k, w) are rows of coefficients in
    Z[x]/(x^e - 1) of one width w <= e: encodings (w = e, the default) or
    power-basis numerators (w = phi(e)).  The result has shape
    (ka, kb, phi(e)).  One integer matmul over the classes gives every
    product of coefficients, the products of each x^(s - t) are summed, and one
    product with the power table finishes.  It runs in int64 when a bound on
    every partial sum, exact in Python ints, is below 2^62, and in Python ints
    otherwise; blocks of rows of `a` keep memory flat.
    """
    ka, k, w = a.shape
    kb = b.shape[0]
    e = w if e is None else e
    wts = [int(x) for x in weights]
    order, starts, table = _correlation_data(e, w)
    # a product sum is at most sum|w| * max|a| * max|b|; a power of x collects
    # at most w of them, and an output sums at most e powers times the table
    bound = (max(1, sum(abs(x) for x in wts)) * w * _absmax(a) * _absmax(b)
             * e * _absmax(table))
    dtype = int_dtype(bound)
    # aw[i, s, c] = w_c a[i, c, s]; one (w x k) @ (k x w) product per pair
    aw = (a.astype(dtype, copy=False) * np.array(wts, dtype=dtype)[:, None]
          ).transpose(0, 2, 1)[:, None]
    bb = b.astype(dtype, copy=False)[None]
    table = table.astype(dtype, copy=False)
    out = np.empty((ka, kb, table.shape[1]), dtype=dtype)
    step = max(1, _GRAM_BLOCK // (kb * w * w))
    for lo in range(0, ka, step):
        prods = (aw[lo:lo + step] @ bb).reshape(-1, kb, w * w)
        out[lo:lo + step] = np.add.reduceat(prods[..., order], starts,
                                            axis=2) @ table
    return out


# ---------------------------------------------------------------------------
# minimal conductors, and the one builder of `Cyclotomic` values


def _galois_matrix(e: int, k: int) -> np.ndarray:
    """sigma_k: zeta_e -> zeta_e^k on power-basis rows, one gather of the
    power table: row i is zeta_e^(i k)."""
    return _power_array(e)[np.arange(_phi(e)) * k % e]


def _primitive_root(q: int) -> int:
    """The smallest generator of the units modulo the prime q."""
    halves = [(q - 1) // r for r in factor_integer(q - 1)]
    return next(g for g in range(2, q) if all(pow(g, h, q) != 1 for h in halves))


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
                k = 1 + d * ((_primitive_root(q) - 1) * pow(d, -1, q) % q)
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
    per step, for all rows at once; the matrix is not kept.
    """
    cond = np.full(len(nums), e, dtype=np.int64)
    for q, steps in _search_steps(e):
        live = np.arange(len(nums))
        for k in steps:
            if k is not None:
                rows = nums[live]
                live = live[(_matmul(rows, _galois_matrix(e, k)) == rows)
                            .all(axis=1)]
            cond[live] //= q
    return cond


def values(nums: np.ndarray, e: int, den: int = 1) -> list[Cyclotomic]:
    """Rows of power-basis numerators at conductor e over den > 0 as
    `Cyclotomic`s, each in lowest terms at its minimal conductor.

    Rational rows (zero beyond the first coordinate) are built in Python; the
    rest take one `minimal_conductors` search and one `descend` per conductor
    found.
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
        sub = nums[irrational]
        cond = minimal_conductors(sub, e)
        for d in np.unique(cond).tolist():
            at = np.flatnonzero(cond == d)
            got, extra = sub[at], 1
            if d != e:
                down = descend(got, e, d)
                if down is None:
                    raise InternalContradiction(
                        "a Galois-fixed value failed to descend")
                got, extra = down
            for i, row in zip(at.tolist(), got.tolist()):
                out[irrational[i]] = Cyclotomic._lowest(d, row, den * extra)
    return out
