"""Exact arithmetic in cyclotomic fields Q(zeta_e).

An element is stored on the power basis 1, z, ..., z^(phi(e)-1) reduced modulo
the e-th cyclotomic polynomial, as an integer coefficient vector over a single
positive denominator.  Every element is normalized to the smallest conductor
that contains it, so equality and hashing are plain component comparisons and
a value equal to a rational number always reports conductor 1.

Many values at once are integer arrays, the form class functions are stored
in: rows of power-basis numerators at one conductor e over one denominator.
The kernels here work on those rows: `lift` to a multiple of e, `descend` to a
divisor of e (with an exact check), `multiply`, `scaled`, `reduced` (lowest
terms) and `gram`.  `encode` writes `Cyclotomic` values as rows in
Z[x]/(x^e - 1); `power_basis` reduces such rows.  The map x -> zeta_e from
Z[x]/(x^e - 1) onto Z[zeta_e] is a ring map that commutes with x -> x^-1, so
sums of products and complex conjugation (index negation) computed on
coefficient rows, power-basis rows included, agree exactly with the same
operations on the values; one product with the power table then gives
power-basis vectors of Q(zeta_e), where equality is equality of integer
vectors.  Arrays are int64 while an exact Python-int bound on every partial
sum is below 2^62, and Python ints (dtype object) otherwise (`int_dtype`).

Everything is integer/Fraction exact with no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np

from .arith import divisors
from .errors import InternalContradiction

__all__ = ["Cyclotomic", "cyclotomic_polynomial", "cyclo_sum", "encode", "gram",
           "int_dtype", "power_basis"]


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


@lru_cache(maxsize=None)
def _power_table(e: int) -> tuple[tuple[int, ...], ...]:
    """Reduced coefficient vector of zeta_e^m for every m in 0..e-1."""
    phi = _phi(e)
    mod = cyclotomic_polynomial(e)
    rows = []
    cur = [0] * phi
    cur[0] = 1
    for _ in range(e):
        rows.append(tuple(cur))
        lead = cur[-1]
        cur = [0] + cur[:-1]
        if lead:
            for j in range(phi):
                cur[j] -= lead * mod[j]
    return tuple(rows)


def _reduce_mod(e: int, coeffs: list[int]) -> list[int]:
    # reduce a polynomial of any degree to the power basis, in place
    mod = cyclotomic_polynomial(e)
    phi = len(mod) - 1
    for i in range(len(coeffs) - 1, phi - 1, -1):
        lead = coeffs[i]
        if lead:
            coeffs[i] = 0
            for j in range(phi):
                coeffs[i - phi + j] -= lead * mod[j]
    out = coeffs[:phi]
    if len(out) < phi:
        out += [0] * (phi - len(out))
    return out


@lru_cache(maxsize=None)
def _units(e: int) -> tuple[int, ...]:
    return tuple(k for k in range(1, e + 1) if gcd(k, e) == 1)


@lru_cache(maxsize=None)
def _descent_kernel(e: int, d: int) -> tuple[int, ...]:
    # Galois automorphisms of Q(zeta_e) fixing Q(zeta_d), as exponents k != 1
    return tuple(k for k in _units(e) if k % d == 1 % d and k != 1)


def _galois_nums(e: int, nums: tuple[int, ...], k: int) -> list[int]:
    pt = _power_table(e)
    phi = len(nums)
    out = [0] * phi
    for i, c in enumerate(nums):
        if c:
            row = pt[(i * k) % e]
            for j in range(phi):
                out[j] += c * row[j]
    return out


def _lift_nums(e: int, nums: tuple[int, ...], big: int) -> list[int]:
    # rewrite a conductor-e vector on the conductor-`big` basis (e | big)
    pt = _power_table(big)
    step = big // e
    out = [0] * _phi(big)
    for i, c in enumerate(nums):
        if c:
            row = pt[(i * step) % big]
            for j in range(len(out)):
                out[j] += c * row[j]
    return out


def _invert_fraction_matrix(rows: list[list[int]]) -> tuple[list[list[int]], int]:
    """Exact inverse of a square integer matrix as (integer matrix, denominator)."""
    n = len(rows)
    a = [[Fraction(v) for v in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise InternalContradiction("rebase matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    den = 1
    for r in range(n):
        for c in range(n, 2 * n):
            den = den * a[r][c].denominator // gcd(den, a[r][c].denominator)
    out = [[int(a[r][c] * den) for c in range(n, 2 * n)] for r in range(n)]
    return out, den


@lru_cache(maxsize=None)
def _rebase_data(e: int, d: int):
    """Pivot rows and exact pseudo-inverse for rewriting conductor e in conductor d.

    Returns (pivots, inv^T, den, cols) with arrays for `descend`: cols[c] is
    zeta_d^c on the conductor-e basis, and inv / den inverts the pivot rows.
    """
    phi_e, phi_d = _phi(e), _phi(d)
    pt = _power_table(e)
    step = e // d
    cols = [pt[(step * i) % e] for i in range(phi_d)]
    # pick phi_d independent rows of the phi_e x phi_d basis matrix
    pivots: list[int] = []
    work: list[list[Fraction]] = []
    for r in range(phi_e):
        row = [Fraction(cols[c][r]) for c in range(phi_d)]
        probe = list(row)
        for w, p in zip(work, pivots):
            lead = next(i for i, v in enumerate(w) if v != 0)
            if probe[lead] != 0:
                f = probe[lead] / w[lead]
                probe = [x - f * y for x, y in zip(probe, w)]
        if any(v != 0 for v in probe):
            work.append(probe)
            pivots.append(r)
            if len(pivots) == phi_d:
                break
    if len(pivots) != phi_d:
        raise InternalContradiction("rebase basis not of full rank")
    square = [[cols[c][r] for c in range(phi_d)] for r in pivots]
    inv, den = _invert_fraction_matrix(square)
    return _int_array(pivots), _int_array(inv).T, den, _int_array(cols)


def _normalize(e: int, nums: list[int], den: int) -> tuple[int, tuple[int, ...], int]:
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        den = -den
        nums = [-v for v in nums]
    g = den
    for v in nums:
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        den //= g
        nums = [v // g for v in nums]
    if e == 1:
        return 1, (nums[0],), den
    if all(v == 0 for v in nums[1:]):
        return 1, (nums[0],), den
    tnums = tuple(nums)
    for d in divisors(e)[:-1]:
        if all(_galois_nums(e, tnums, k) == nums for k in _descent_kernel(e, d)):
            rebased = descend(_int_array([nums]), e, d)
            if rebased is None:
                raise InternalContradiction("Galois-fixed value failed to rebase")
            ynums, extra = rebased
            return _normalize(d, [int(c) for c in ynums[0]], den * extra)
    return e, tnums, den


def _coerce(value) -> "Cyclotomic | None":
    if isinstance(value, Cyclotomic):
        return value
    if isinstance(value, int):
        return Cyclotomic._raw(1, (value,), 1)
    if isinstance(value, Fraction):
        return Cyclotomic._raw(1, (value.numerator,), value.denominator)
    return None


class Cyclotomic:
    """An exact element of Q(zeta_e), always stored at its minimal conductor."""

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coeffs) -> None:
        vals = [Fraction(c) for c in coeffs]
        if len(vals) != _phi(order):
            raise ValueError(
                f"conductor {order} needs {_phi(order)} coefficients, got {len(vals)}")
        den = 1
        for v in vals:
            den = den * v.denominator // gcd(den, v.denominator)
        nums = [int(v * den) for v in vals]
        e, n, d = _normalize(order, nums, den)
        object.__setattr__(self, "order", e)
        object.__setattr__(self, "nums", n)
        object.__setattr__(self, "den", d)

    @classmethod
    def _raw(cls, order: int, nums: tuple[int, ...], den: int) -> "Cyclotomic":
        self = object.__new__(cls)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)
        return self

    @classmethod
    def _build(cls, order: int, nums: list[int], den: int) -> "Cyclotomic":
        return cls._raw(*_normalize(order, nums, den))

    @classmethod
    def from_rational(cls, value) -> "Cyclotomic":
        f = Fraction(value)
        return cls._raw(1, (f.numerator,), f.denominator)

    @classmethod
    def zero(cls) -> "Cyclotomic":
        return cls._raw(1, (0,), 1)

    @classmethod
    def one(cls) -> "Cyclotomic":
        return cls._raw(1, (1,), 1)

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "Cyclotomic":
        """The root of unity zeta_order**power."""
        if order < 1:
            raise ValueError("order must be positive")
        row = list(_power_table(order)[power % order])
        return cls._build(order, row, 1)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.nums)

    def coeff_pairs(self) -> list[list[int]]:
        return [[f.numerator, f.denominator] for f in self.coeffs]

    def __setattr__(self, *_):
        raise AttributeError("Cyclotomic is immutable")

    # ring operations ------------------------------------------------------

    def __add__(self, other) -> "Cyclotomic":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if self.order == 1 and o.order == 1:
            a, b = self.nums[0], o.nums[0]
            return Cyclotomic._build(1, [a * o.den + b * self.den], self.den * o.den)
        e = self.order * o.order // gcd(self.order, o.order)
        x = _lift_nums(self.order, self.nums, e) if self.order != e else list(self.nums)
        y = _lift_nums(o.order, o.nums, e) if o.order != e else list(o.nums)
        den = self.den * o.den // gcd(self.den, o.den)
        fx, fy = den // self.den, den // o.den
        return Cyclotomic._build(e, [a * fx + b * fy for a, b in zip(x, y)], den)

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic._raw(self.order, tuple(-v for v in self.nums), self.den)

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
        if o.order == 1:
            if o.nums[0] == 0:
                return Cyclotomic.zero()
            return Cyclotomic._build(
                self.order, [v * o.nums[0] for v in self.nums], self.den * o.den)
        if self.order == 1:
            return o * self
        e = self.order * o.order // gcd(self.order, o.order)
        x = _lift_nums(self.order, self.nums, e) if self.order != e else list(self.nums)
        y = _lift_nums(o.order, o.nums, e) if o.order != e else list(o.nums)
        prod = [0] * (len(x) + len(y) - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    if b:
                        prod[i + j] += a * b
        return Cyclotomic._build(e, _reduce_mod(e, prod), self.den * o.den)

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
        if self.order <= 2:
            return self
        return self.galois(self.order - 1)

    def galois(self, k: int) -> "Cyclotomic":
        """Apply the automorphism zeta -> zeta^k; k must be prime to the conductor."""
        if gcd(k, self.order) != 1:
            raise ValueError(f"{k} is not prime to the conductor {self.order}")
        if self.order == 1:
            return self
        return Cyclotomic._build(
            self.order, _galois_nums(self.order, self.nums, k % self.order), self.den)

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


def cyclo_sum(values) -> Cyclotomic:
    """Exact sum of many cyclotomic values, normalizing once at the end."""
    items = [v if isinstance(v, Cyclotomic) else _coerce(v) for v in values]
    if not items:
        return Cyclotomic.zero()
    e = 1
    den = 1
    for v in items:
        e = e * v.order // gcd(e, v.order)
        den = den * v.den // gcd(den, v.den)
    acc = [0] * _phi(e)
    for v in items:
        f = den // v.den
        lifted = _lift_nums(v.order, v.nums, e) if v.order != e else v.nums
        for j, c in enumerate(lifted):
            if c:
                acc[j] += c * f
    return Cyclotomic._build(e, acc, den)


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


@lru_cache(maxsize=None)
def _power_array(e: int) -> np.ndarray:
    """`_power_table(e)` as an array of shape (e, phi(e))."""
    return _int_array(_power_table(e))


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

    One product with `_power_table(e)`: shape (..., e) -> (..., phi(e)).
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
    pivots, inv_t, den, cols = _rebase_data(e, d)
    got = _matmul(nums[..., pivots], inv_t)
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


@lru_cache(maxsize=None)
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
