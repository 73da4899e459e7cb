"""Exact irreducible character tables and the class-function calculus.

A class function is one exact integer array.  It stores (e, nums, den): row c
of the k x phi(e) array ``nums`` holds the power-basis numerators of the
value on class c in Q(zeta_e), over one denominator den > 0 with
gcd(den, nums) = 1.  The conductor e is canonical, lcm(exp(G), the minimal
conductors of the values), so every table row and everything derived from
table rows sits at e = exp(G).  The stored form is therefore unique: equality
is equality of e, den and the array (on one table cache), and the hash is
taken over the same data.  Sums, scalings, pointwise products, conjugation
(a permutation of rows), inflation and restriction (a gather, then a lift or
an exactly checked descent of the conductor) and induction (one matmul with
the induction counts) are array operations; inner products and
decompositions are one `cyclotomic.gram` call on the stored arrays, and
norms one `gram_diagonal`; `_check_table` checks both orthogonality relations
of a table at one embedding per prime, from the Galois action on its rows.
`norm` hands callers that compare <f, f> with an integer an exact Fraction
read off the Gram numerators.  Values outside
Q(zeta_exp(G)), which only user-built functions have, take one batched search
for their minimal conductors.  ``values``, the tuple of `Cyclotomic`, is built
on demand by the one builder `cyclotomic.values` for rendering, JSON, sort
keys and the public API.

The induction counts, the restriction gather and the conjugation data of a
subgroup are memoized by `groups.cached` in its ``_cache``, as are the
table's numerators in the table cache, and a normal subgroup's cache keeps
its `clifford._NormalPair`, a view of the whole tables restricted to and
induced from the normal subgroups of its group.  An entry holds arrays and
integers only, never a group, so it keeps no group alive and dies with the
subgroup's cache.

Tables of abelian groups, where every class is one element, come from the
dual group: `_abelian_rows` extends the characters over the generating set S
that the group's axiom check keeps, as exponents of zeta_e, and checks every
row additive on every generator.  Its rows are put in canonical order as
exponents, by the rank of each zeta_e^t in the order of the roots'
memoized keys (`cyclotomic._root_keys`), and only then gathered into
numerators.  Every other table is computed by
Dixon's method: the class-sum structure constants are simultaneously
diagonalized over a prime field F_p with p = 1 (mod exponent) and
p > 2*sqrt(|G|), and the eigenvalue data is lifted back to Q(zeta_e) by
matching against roots of unity in F_p.  Either way the table is then re-verified
exactly (positive integer degrees whose squares sum to |G|, both
orthogonality relations and Galois stability), so the flags on the results
are earned, not assumed.  The table cache holds each table's array once, and
the caps are checked on every call, cached or not; `CharacterTable.validate`
checks any array but that one again.  A `CharacterTable` is that array: its
degrees, validation, rendering, row lookup and decompositions read it, and
its `Character` rows are built once per table object, on first use.

The F_p stage works on int64 residues, behind one guard that raises TooLarge
unless every sum, at most max(k, e) products below p^2, stays below 2^62.
Class matrices are built one at a time, in one pass over the classes: each is
checked for class-constancy, used for splitting while there are fewer than k
rows, and dropped.  A row stands for one common eigenspace of the class
matrices used so far: it is the projection of e_0 onto that space, up to a
nonzero scalar, so the splitting starts from the lone row e_0.  A class matrix
A keeps the rows it maps to multiples of themselves, found by one product
with all rows.  Any other row v reduces its Krylov rows v, vA, vA^2, ... up
to the first dependency, which is the minimal polynomial mu of A on v
(Wiedemann 1986); its roots, found by Horner's rule at all of F_p at once,
must number deg mu, and v splits into the pieces v (mu / (x - lam))(A), read
off mu by one synthetic division and checked exactly.  With k rows, each is
a multiple of one central character.  The lift writes the root-of-unity
multiplicities of every value, one DFT matmul over F_p per element order,
into one (k, k, e) coefficient array; one product with the power table gives
the table's numerators.  Their distinct values (`_distinct`) key the
canonical row order, one `cyclotomic._value_keys` key per distinct value,
the same key `_root_keys` holds for a root of unity; one `_check_table`
checks the rows and the table cache keeps them as they are.  No `Cyclotomic`
is built until a table is rendered, and then one per distinct value, which
each entry's text or JSON reads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import count
from math import lcm

import numpy as np

from .arith import primes_1_mod, primitive_root
from .cyclotomic import (Cyclotomic, _absmax, _bound, _evaluate,
                         _evaluation_data, _fold_bound, _matmul, _matmul_mod,
                         _phi, _power_array, _root_keys, _value_keys,
                         _value_parts, align, descend, gram, gram_diagonal,
                         int_dtype, lift, minimal_conductors, multiply,
                         reduced, scaled, values)
from .errors import (GroupMismatch, InternalContradiction, NotACharacter,
                     NotIrreducible, NotNormal, TooLarge)
from .groups import (MAX_ORDER, FiniteGroup, QuotientMap, Subgroup, cached,
                     conjugacy_classes, is_normal, row_keys, unique_sorted)

__all__ = [
    "ClassFunction", "Character", "CharacterTable", "character_table",
    "inner_product", "inner_product_matrix", "norm", "restrict", "induce",
    "conjugate_character", "inflate", "pointwise_product", "decompose",
]


# Dixon's method keeps one k x k class matrix at a time, and its splits cost
# up to k^3: D4xC4xC4xC3 (k = 240, from a 5-line permutation file) takes
# 0.7-0.9 s and 54 MB VmHWM.  Abelian tables come from the dual group in k n
# steps per generator: C4^4 (k = 256) takes 0.10-0.11 s and 40 MB, and
# C6xC6xC6 (k = 216, the largest catalog product) 0.05 s and 38 MB.  All on
# one CPU of a 2-vCPU Xeon by tools/table_cost.py
MAX_TABLE_CLASSES = 256

# validating k classes at exponent e costs about k^2 phi(e)^2 to evaluate the
# table modulo a prime, plus k^3 per prime for the two Grams, which the class
# cap does not bound.  This cap on k^3 phi(e), the cost when both Grams were
# formed at every embedding, admits C128 from one generator (k^3 phi(e) =
# 2^27), whose table from the dual group takes 0.18-0.26 s and 72 MB VmHWM,
# 0.11 s of it the validation and 0.02 s the row order, and the costliest
# cyclic tables it admits are C160, 0.25-0.30 s and 96 MB, and C127,
# 0.27-0.37 s and 111 MB; C6xC6xC6 takes 0.04-0.06 s and 38 MB.  All on one
# CPU of a 2-vCPU Xeon by tools/table_cost.py; C131 (2.9e8) is the smallest
# cyclic group it refuses
MAX_TABLE_WORK = 1 << 28

# the class-constancy count gathers the products of as many elements of a
# class as fit in this many entries, and at least one: a block holds at most
# max(_COUNT_CHUNK, |G|) products, 52 of S7's 5040-entry rows where its
# largest class has 840 elements, so the count stays below the group's own
# peak memory
_COUNT_CHUNK = 1 << 18


def _same_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    return a._cache is b._cache


def _canonical(base: int, e: int, nums: np.ndarray,
               den: int) -> tuple[int, np.ndarray, int]:
    """The stored form of values nums / den in Q(zeta_e) on a group of exponent
    `base`: conductor lcm(base, minimal conductors of the values), lowest
    terms.  One descent to exp(G) settles every function derived from table
    rows; only values outside Q(zeta_base) take the conductor search."""
    big = lcm(e, base)
    nums = lift(nums, e, big)
    if big != base:
        down = descend(nums, big, base)
        if down is None:
            base = lcm(base, *minimal_conductors(nums, big).tolist())
            down = (nums, 1) if base == big else descend(nums, big, base)
            if down is None:
                raise InternalContradiction(
                    "values failed to descend to their conductors")
        nums, den, big = down[0], den * down[1], base
    return (big, *reduced(nums, den))


def _aligned(fns) -> tuple[int, np.ndarray, int]:
    """Numerators of class functions over one conductor e and one denominator
    by `align`: (e, array of shape (functions, classes, phi(e)), den)."""
    e, nums, den = align((fn.e, fn.nums, fn.den) for fn in fns)
    return e, np.stack(nums), den


class ClassFunction:
    """A function on a group constant on conjugacy classes, with exact values.

    Stored as one integer array: row c of ``nums`` holds the power-basis
    numerators of the value on class c in Q(zeta_e), over the common
    denominator ``den``.  ``values`` builds the `Cyclotomic` tuple on demand.
    """

    def __init__(self, group: FiniteGroup, values) -> None:
        vals = tuple(v if isinstance(v, Cyclotomic) else Cyclotomic.from_rational(v)
                     for v in values)
        k = len(conjugacy_classes(group))
        if len(vals) != k:
            raise ValueError(f"need {k} class values, got {len(vals)}")
        at, parts = _value_parts(vals)
        e, nums, den = align(parts, group.exponent())
        nums = np.concatenate(nums)[np.argsort(np.concatenate(at))]
        self._set(group, e, *reduced(nums, den))

    def _set(self, group: FiniteGroup, e: int, nums: np.ndarray,
             den: int) -> None:
        self.group = group
        self.partition = conjugacy_classes(group)
        nums.setflags(write=False)
        self.e, self.nums, self.den = e, nums, den

    @classmethod
    def _make(cls, group: FiniteGroup, e: int, nums: np.ndarray, den: int):
        """A function from a stored form that is already canonical."""
        fn = cls.__new__(cls)
        fn._set(group, e, nums, den)
        return fn

    @classmethod
    def _from_array(cls, group: FiniteGroup, e: int, nums: np.ndarray,
                    den: int) -> "ClassFunction":
        """The function with values nums / den in Q(zeta_e), canonicalized."""
        return cls._make(group, *_canonical(group.exponent(), e, nums, den))

    @property
    def values(self) -> tuple[Cyclotomic, ...]:
        return tuple(values(self.nums, self.e, self.den))

    def _value(self, c: int) -> Cyclotomic:
        return values(self.nums[c:c + 1], self.e, self.den)[0]

    def __call__(self, g: int) -> Cyclotomic:
        return self._value(int(self.partition.class_of[g]))

    def at_identity(self) -> Cyclotomic:
        # the identity class is class 0
        return self._value(0)

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        if not isinstance(other, ClassFunction):
            return NotImplemented
        if not _same_group(self.group, other.group):
            raise GroupMismatch("cannot add class functions on different groups")
        e, (a, b), den = _aligned([self, other])
        # stored entries are below 2^62, so the sum fits in int64
        return ClassFunction._from_array(self.group, e, a + b, den)

    def scale(self, c) -> "ClassFunction":
        c = c if isinstance(c, Cyclotomic) else Cyclotomic.from_rational(c)
        if not c.is_rational():
            return pointwise_product(
                self, ClassFunction(self.group, [c] * len(self.partition)))
        q = c.as_rational()
        return ClassFunction._from_array(self.group, self.e,
                                         scaled(self.nums, q.numerator),
                                         self.den * q.denominator)

    def _same_form(self, other: "ClassFunction") -> bool:
        return (self.e == other.e and self.den == other.den
                and np.array_equal(self.nums, other.nums))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return _same_group(self.group, other.group) and self._same_form(other)

    def __hash__(self) -> int:
        return hash((self.e, self.den, *row_keys(self.nums[None])))

    def sort_key(self):
        return tuple(v.sort_key() for v in self.values)

    def __repr__(self) -> str:
        vals = ", ".join(str(v) for v in self.values)
        return f"{type(self).__name__}[{vals}]"


class Character(ClassFunction):
    """A class function that is a character; the identity value is its degree.

    When ``irreducible=True`` is passed, the norm <chi, chi> = 1 is recomputed
    exactly and enforced rather than trusted.
    """

    irreducible = False

    def __init__(self, group: FiniteGroup, values, irreducible: bool = False) -> None:
        super().__init__(group, values)
        self._certify(irreducible)

    @classmethod
    def of(cls, fn: ClassFunction, irreducible: bool = False) -> "Character":
        """`fn` as a character, with the constructor's checks."""
        chi = cls._make(fn.group, fn.e, fn.nums, fn.den)
        chi._certify(irreducible)
        return chi

    def _certify(self, irreducible: bool) -> None:
        deg = self.nums[0]
        if deg[1:].any() or int(deg[0]) % self.den or deg[0] < 1:
            raise NotACharacter(
                f"degree {self.at_identity()} is not a positive integer")
        if irreducible and norm(self) != 1:
            raise NotACharacter("character claimed irreducible has norm != 1")
        self.irreducible = irreducible

    @property
    def degree(self) -> int:
        return int(self.nums[0, 0]) // self.den


def inner_product(phi: ClassFunction, psi: ClassFunction) -> Cyclotomic:
    """(1/|G|) sum over G of phi(g) * conj(psi(g)), computed classwise."""
    return inner_product_matrix([phi], [psi])[0][0]


def inner_product_matrix(phis, psis) -> list[list[Cyclotomic]]:
    """All <phi, psi> for phi in phis, psi in psis, from one Gram kernel call:
    one row per phi, each with one entry per psi."""
    phis, psis = list(phis), list(psis)
    fns = phis + psis
    if not fns:
        return []
    g = fns[0].group
    if not all(_same_group(g, fn.group) for fn in fns):
        raise GroupMismatch("inner product needs both functions on one group")
    e, nums, den = _aligned(fns)
    got = gram(nums[:len(phis)], nums[len(phis):], fns[0].partition.sizes, e)
    flat = values(got.reshape(-1, got.shape[2]), e, den * den * g.order)
    return [flat[i * len(psis):(i + 1) * len(psis)] for i in range(len(phis))]


def _exact(got: np.ndarray, e: int, scale: int) -> Fraction | Cyclotomic:
    """The value got / scale, from power-basis numerators at conductor e: an
    exact Fraction when the numerators beyond the first vanish, the
    `Cyclotomic` otherwise."""
    if got[1:].any():
        return values(got[None], e, scale)[0]
    return Fraction(int(got[0]), scale)


def norm(fn: ClassFunction) -> Fraction | Cyclotomic:
    """<fn, fn> from the diagonal Gram form on the stored array, by `_exact`."""
    got = gram_diagonal(fn.nums[None], fn.partition.sizes, fn.e)[0]
    return _exact(got, fn.e, fn.den * fn.den * fn.group.order)


def _check_table(g: FiniteGroup, e: int, nums: np.ndarray, bound: int) -> None:
    """Re-check a table of G exactly from its numerators at conductor e,
    shape (rows, classes, phi(e)), at most bound in absolute value: the row
    count, the degrees (positive
    integers whose squares sum to |G|), and both orthogonality relations, in
    evaluation space modulo primes P = 1 (mod e), with no interpolation.

    At each P the table is evaluated once, x[u, i, c] = iota_u(chi_i(c)) at
    the embeddings iota_u: zeta_e -> omega^u (`cyclotomic._evaluation_data`).
    The row and column Grams are formed at u = 1 only and compared with
    |G| delta_ij and (|G| / |C_i|) delta_ij, each failure named at its first
    position in row-major order.  Then each generator a of (Z/e)^x must
    permute the rows: x at the embeddings a u is x at u with its rows
    permuted, sigma_a(chi_i) = chi_pi(i) (Dixon 1967).  That gives
    iota_(a u)(Gamma_ij) = iota_u(Gamma_pi(i)pi(j)) for the row Gram Gamma,
    and the column Gram is fixed, so both congruences hold at every
    embedding and P divides every numerator of a Gram minus its target.
    Once the primes' product exceeds twice a bound on those numerators,
    they are 0.  A table that is not Galois-stable fails.

    The check does not prove that the rows are characters: with A and B
    Q8xC3's rational rows 0 and 1, the rows (A + B +- i (A - B)) / 2 are
    integral, orthogonal and Galois-stable, and pass in their place.
    """
    n = g.order
    sizes = conjugacy_classes(g).sizes
    k = len(sizes)
    if len(nums) != k:
        raise InternalContradiction("row count differs from class count")
    degs = nums[:, 0, 0].tolist()
    if min(degs) < 1 or nums[:, 0, 1:].any() or sum(d * d for d in degs) != n:
        raise InternalContradiction(
            "degrees are not positive integers whose squares sum to |G|")
    # the column Gram has k <= |G| weights of 1, so this bounds both, and
    # both targets are at most |G|
    bound = _bound(bound, bound, n, e, nums.shape[2]) + n
    m, i = 1, 0
    while m <= 2 * bound:
        data = _evaluation_data(e, i)
        p = data.prime
        x = _evaluate(nums, data)
        at, bar = x[0], x[data.conj[0]]
        # sum_c |C| chi_i(c) conj(chi_j(c)) = |G| delta_ij, and
        # sum_chi chi(c_i) conj(chi(c_j)) = (|G| / |C_i|) delta_ij, at u = 1
        for what, got, want in (
                ("row", _matmul_mod(at * sizes % p, bar.T, p), [n] * k),
                ("column", _matmul_mod(at.T, bar, p), [n // c for c in sizes])):
            bad = got != np.diag(want) % p
            if bad.any():
                raise InternalContradiction(
                    f"{what} orthogonality fails at {divmod(int(bad.argmax()), k)}")
        # each row's values at every embedding, u last as `_evaluate` made
        # them, so a Galois step is a gather of contiguous runs
        vals = x.transpose(1, 2, 0)
        keys = sorted(row_keys(vals))
        if any(sorted(row_keys(vals.take(s, axis=2))) != keys
               for s in data.galois):
            raise InternalContradiction("the table is not Galois-stable")
        m, i = m * p, i + 1


def _dixon_prime(exponent: int, order: int) -> int:
    """Smallest prime p with p = 1 (mod exponent) and p > 2*sqrt(order)."""
    return next(p for p in primes_1_mod(exponent, count(1))
                if p * p > 4 * order)


def _row_reduce(a: np.ndarray, p: int,
                inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The reduced row echelon form over F_p of the matrix a, and the mask of
    its pivot columns.

    Column by column, the first row at or below the rank with a nonzero entry
    is scaled to 1 by `inv`, the table of inverses mod p, clears the column
    in every other row and takes the row at the rank, whose old entries move
    to where it was.  Rows from the rank down are zero left of the column, so
    only the columns from it on change, and once they are zero from the
    column on too, as past the first dependent column of a Krylov block, no
    pivot is left and the loop stops.
    """
    a = a % p
    pivots = np.zeros(a.shape[1], dtype=bool)
    rank = 0
    for c in range(a.shape[1]):
        nonzero = a[rank:, c].nonzero()[0]
        if not len(nonzero):
            if not a[rank:, c:].any():
                break
            continue
        piv = rank + nonzero[0]
        top = a[piv, c:] * inv[a[piv, c]] % p
        a[piv, c:] = a[rank, c:]
        a[:, c:] = (a[:, c:] - a[:, c, None] * top) % p
        a[rank, c:] = top
        pivots[c] = True
        rank += 1
    return a, pivots


def _split(mat: np.ndarray, vecs: np.ndarray, p: int,
           inv: np.ndarray) -> np.ndarray:
    """Split each row of vecs into its pieces in the eigenspaces of A, the
    action v -> v mat^T of a class matrix over F_p: the rows of the result,
    each row's pieces in order of eigenvalue.

    Each row stands for one common eigenspace of the class matrices used so
    far: it is the projection of e_0 onto that space, up to a nonzero
    scalar.  Over F_p, e_0 = sum_chi (chi(1)^2 / |G|) omega_chi with no
    coefficient 0 mod p, so the minimal polynomial mu of A on a row v has
    every eigenvalue of A on v's space as a root (Wiedemann 1986), and each
    piece v (mu / (x - lam))(A) is again such a projection.  One product of
    all rows with mat^T keeps as they are the rows that A maps to a multiple
    of themselves.  Every other row reduces its Krylov block v, vA, vA^2, ...
    by `_row_reduce` until a dependency appears: k + 1 rows for e_0 alone,
    whose space is all of F_p^k, else 2 rows, doubled up to k + 1.  The
    first dependency gives mu, Horner's rule at all of F_p at once its roots,
    which must number deg mu, and one synthetic division the pieces, each
    checked to be nonzero with u A = lam u.
    """
    k = len(mat)
    img = vecs @ mat.T % p
    at = np.arange(len(vecs)), (vecs != 0).argmax(axis=1)
    lam = img[at] * inv[vecs[at]] % p
    fixed = (img == lam[:, None] * vecs % p).all(axis=1)
    out = []
    for v, w, keep in zip(vecs, img, fixed):
        if keep:
            out.append(v[None])
            continue
        kry = [v, w]
        size = k + 1 if len(vecs) == 1 else 2
        while True:
            while len(kry) < size:
                kry.append(kry[-1] @ mat.T % p)
            red, pivots = _row_reduce(np.array(kry).T, p, inv)
            deg = int(pivots.sum())
            if deg < size:
                break
            size = min(2 * size, k + 1)
        # mu = x^deg + sum_i mu[i] x^i, from the first dependent Krylov row
        mu = -red[:deg, deg] % p
        val, xs = np.ones(p, dtype=np.int64), np.arange(p)
        for c in mu[::-1]:
            val = (val * xs + c) % p
        roots = (val == 0).nonzero()[0]
        if len(roots) != deg:
            raise InternalContradiction("class algebra failed to split over F_p")
        # row r of quo holds mu / (x - roots[r]), one synthetic division
        quo = np.ones((deg, deg), dtype=np.int64)
        for i in range(deg - 1, 0, -1):
            quo[:, i - 1] = (mu[i] + roots * quo[:, i]) % p
        kry = np.array(kry[:deg + 1])
        # row j + 1 of kry is row j times mat^T, so quo @ kry[1:] is pieces A
        pieces = quo @ kry[:deg] % p
        if (not pieces.any(axis=1).all()
                or (quo @ kry[1:] % p != roots[:, None] * pieces % p).any()):
            raise InternalContradiction("a Krylov piece is not an eigenvector")
        out.append(pieces)
    return np.concatenate(out)


class CharacterTable:
    """The full set of irreducible characters in canonical order.

    Rows sort by degree then lexicographically on values; columns follow the
    canonical class order of the group.  The table is its array ``nums``,
    the numerators at e = exp(G) over den 1 of shape (k, k, phi(e)), which
    every method reads; ``rows``, the `Character`s, are built on first use.
    """

    def __init__(self, group: FiniteGroup, nums: np.ndarray) -> None:
        self.group = group
        self.partition = conjugacy_classes(group)
        self.nums = nums

    @cached_property
    def rows(self) -> tuple[Character, ...]:
        e = self.group.exponent()
        rows = tuple(Character._make(self.group, e, row, 1) for row in self.nums)
        # the table's array passed one exact `_check_table`, norms included
        for c in rows:
            c.irreducible = True
        return rows

    def __len__(self) -> int:
        return len(self.nums)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, i: int) -> Character:
        return self.rows[i]

    def degrees(self) -> tuple[int, ...]:
        return tuple(self.nums[:, 0, 0].tolist())

    def index_of(self, fn: ClassFunction) -> int:
        """The row equal to fn; stored forms are canonical, so equal values
        have equal numerator rows."""
        if not _same_group(fn.group, self.group):
            raise GroupMismatch("character does not live on the table's group")
        hit = ((self.nums == fn.nums).all(axis=(1, 2)).nonzero()[0]
               if fn.e == self.group.exponent() and fn.den == 1 else [])
        if not len(hit):
            raise NotIrreducible("character is not a row of the character table")
        return int(hit[0])

    def validate(self) -> None:
        """Re-check all table invariants exactly by `_check_table`; raises on
        any failure.  The array the group's table cache holds passed that
        check when it was built, so it is not checked again; any other array,
        a copy included, is."""
        if self.nums is not _table.peek(self.group):
            _check_table(self.group, self.group.exponent(), self.nums,
                         _absmax(self.nums))

    def _distinct_values(self) -> tuple[list[Cyclotomic], list[list[int]]]:
        """The table's distinct values, from one `values` call, and for each
        row the index of each entry's value among them, by `_distinct`."""
        flat = self.nums.reshape(len(self) ** 2, -1)
        first, at = _distinct(flat)
        return (values(flat[first], self.group.exponent()),
                at.reshape(len(self), -1).tolist())

    def render_text(self) -> str:
        part = self.partition
        k = len(part)
        name = self.group.name or "group"
        head = f"character table of {name} (order {self.group.order}, {k} classes)"
        all_rows = [["class"] + [str(i) for i in range(k)],
                    ["size"] + [str(s) for s in part.sizes],
                    ["rep"] + [str(r) for r in part.representatives]]
        vals, at = self._distinct_values()
        shown = [str(v) for v in vals]
        for i, row in enumerate(at):
            all_rows.append([f"X{i + 1}"] + [shown[j] for j in row])
        widths = [max(len(r[c]) for r in all_rows) for c in range(k + 1)]
        lines = ["  ".join(v.rjust(w) for v, w in zip(r, widths))
                 for r in all_rows]
        return "\n".join([head] + lines)

    def to_json_dict(self) -> dict:
        part = self.partition
        vals, at = self._distinct_values()
        pairs = [v.coeff_pairs() for v in vals]
        # fresh lists per entry, so that a caller who edits one entry
        # leaves the entries of the same value alone
        return {
            "group": self.group.name,
            "order": self.group.order,
            "class_sizes": list(part.sizes),
            "class_representatives": list(part.representatives),
            "rows": [
                {
                    "degree": degree,
                    "values": [
                        {"conductor": vals[j].order,
                         "coeffs": [pair.copy() for pair in pairs[j]]}
                        for j in row
                    ],
                }
                for degree, row in zip(self.degrees(), at)
            ],
        }


def _table_nums(g: FiniteGroup) -> np.ndarray:
    """The table's numerators at e = exp(G) over den 1, rows in canonical
    order: one read-only (k, k, phi(e)) array from the table cache, computed
    once per multiplication table under the caps below."""
    if g.order > MAX_ORDER:
        raise TooLarge(f"group order {g.order} exceeds the cap of {MAX_ORDER}")
    k = len(conjugacy_classes(g))
    if k > MAX_TABLE_CLASSES:
        raise TooLarge(f"{k} classes exceed the cap of {MAX_TABLE_CLASSES} "
                       "for a character table")
    e = g.exponent()
    work = k ** 3 * _phi(e)
    if work > MAX_TABLE_WORK:
        raise TooLarge(f"{k} classes at exponent {e} need k^3 phi(e) = {work}"
                       f" steps, over the cap of {MAX_TABLE_WORK} for a table")
    return _table(g)


@cached
def _table(g: FiniteGroup) -> np.ndarray:
    """The table's numerators once per table cache: `_abelian_rows` when
    every class is a single element, `_dixon_rows` otherwise.  The memo looks
    the builder up by name on each miss, so that a patched one sees every
    build."""
    if len(conjugacy_classes(g)) == g.order:
        return _abelian_rows(g)
    return _dixon_rows(g)


def _table_bound(nums: np.ndarray, e: int) -> int:
    """A bound on every numerator of rows at e whose column 0 holds their
    degrees: a character value is a sum of chi(1) e-th roots of unity, so
    each of its numerators is at most chi(1) `_fold_bound(e, e)`.  Both
    builders' tables satisfy it (Dixon's multiplicity sums prove it, and a
    dual group's values are single roots), and so does every array of table
    rows that keeps the degrees in column 0: gathers, lifts, inflations, and
    |H| Ind theta, whose degree column is |G| theta(1)."""
    return max(1, *nums[:, 0, 0].tolist()) * _fold_bound(e, e)


def character_table(g: FiniteGroup) -> CharacterTable:
    """Exact irreducible character table; equal tables share its array.

    The shared cache holds the array only, never characters bound to a
    group, so it does not keep any group alive.
    """
    return CharacterTable(g, _table_nums(g))


def _distinct(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a 2-d integer array that occur first among equal rows, in
    order, and for each row the index of its equal among them: one
    `groups.row_keys` and a dict."""
    first = {}
    at = np.array([first.setdefault(key, i)
                   for i, key in enumerate(row_keys(flat))], dtype=np.intp)
    firsts = np.array(list(first.values()), dtype=np.intp)
    return firsts, np.searchsorted(firsts, at)


def _row_order(nums: np.ndarray, e: int) -> np.ndarray:
    """The permutation that puts table rows, numerators at e over 1 of shape
    (k, k, phi(e)), in canonical order: by degree, then by their values in
    `Cyclotomic.sort_key` order, from one `_value_keys` key per distinct
    value (`_distinct`).  Raises unless every value is an integer of
    Q(zeta_e)."""
    k = len(nums)
    flat = nums.reshape(k * k, -1)
    first, at = _distinct(flat)
    # the identity class, class 0, holds the degree
    return _sorted_by(np.column_stack(
        [nums[:, 0, 0], _value_keys(flat[first], e)[at].reshape(k, -1)]))


def _sorted_by(keys: np.ndarray) -> np.ndarray:
    """The permutation that sorts the rows of keys, of shape (k, ...), with
    one `np.lexsort`, the first column most significant."""
    return np.lexsort(keys.reshape(len(keys), -1).T[::-1])


def _dixon_rows(g: FiniteGroup) -> np.ndarray:
    """Dixon's method, then one exact `_check_table` of the whole table.

    Returns the table's numerators at e = exp(G) over den 1, rows in
    canonical order: one array of shape (k, k, phi(e)).
    """
    part = conjugacy_classes(g)
    k = len(part)
    n = g.order
    e = g.exponent()
    p = _dixon_prime(e, n)
    # every product below sums at most max(k, e) terms below p^2
    if max(k, e) * (p - 1) ** 2 >= 1 << 62:
        raise TooLarge(f"Dixon's prime {p} for {k} classes at exponent {e} "
                       "is too large for int64 residues")
    sizes = np.array(part.sizes, dtype=np.int64)
    classof = part.class_of
    inv = np.array([pow(x, p - 2, p) for x in range(p)], dtype=np.int64)

    # one class matrix at a time: mat[j, l] = #{(x, y) in C_i x C_j : x y = z}
    # for any z in C_l, from counts of (class of y, class of x y) over x in
    # C_i, y in G, in blocks of rows x; every count is checked, and while
    # there are fewer than k rows, one per common eigenspace from the lone row
    # e_0 on, the matrix splits them (class 0, the identity, splits nothing)
    vecs = np.eye(1, k, dtype=np.int64)
    step = max(1, _COUNT_CHUNK // n)
    for i, cls in enumerate(part.classes):
        cls = np.array(cls, dtype=np.int64)
        cnt = sum(_product_counts(g.mul[cls[at:at + step]], classof, k)
                  for at in range(0, len(cls), step))
        if (cnt % sizes).any():
            raise InternalContradiction("structure constants not class-constant")
        if i and len(vecs) < k:
            vecs = _split(cnt // sizes % p, vecs, p, inv)
    if len(vecs) != k:
        raise InternalContradiction("simultaneous diagonalization incomplete")

    # scale each eigenvector to 1 at the identity class, recover the degrees
    if (vecs[:, 0] == 0).any():
        raise InternalContradiction("central character vanishes at identity")
    vecs = vecs * inv[vecs[:, 0]][:, None] % p
    reps = np.array(part.representatives, dtype=np.int64)
    inv_sizes = inv[sizes % p]
    norms = (vecs * vecs[:, classof[g.inv[reps]]] % p) @ inv_sizes % p
    square_root = np.zeros(p, dtype=np.int64)
    roots = np.arange(1, (p + 1) // 2)
    square_root[roots * roots % p] = roots
    degs = square_root[n % p * inv[norms] % p]
    if (degs == 0).any():
        raise InternalContradiction("degree recovery failed")
    chivals = degs[:, None] * vecs % p * inv_sizes % p

    # a primitive e-th root of unity in F_p
    w = pow(primitive_root(p), (p - 1) // e, p)
    w_powers = np.array([pow(w, t, p) for t in range(e)], dtype=np.int64)

    # powers[t, j] = class of reps[j]^t
    orders = np.array([g.element_order(int(r)) for r in reps])
    cur = np.full(k, g.identity, dtype=np.int64)
    powers = [cur]
    for _ in range(int(orders.max()) - 1):
        cur = g.mul[cur, reps]
        powers.append(cur)
    powers = classof[np.array(powers)]

    # coeffs[i, j, t] = multiplicity of zeta_e^t in chi_i(g_j): with o the
    # order of g_j, zeta_o^m = zeta_e^(m e/o) occurs (1/o) sum_s chi(g_j^s)
    # zeta_o^(-m s) times, one DFT matmul over F_p for each order o
    coeffs = np.zeros((k, k, e), dtype=np.int64)
    for o in unique_sorted(orders).tolist():
        js = (orders == o).nonzero()[0]
        t = np.arange(o)
        dft = w_powers[-(e // o) * np.outer(t, t) % e]
        coeffs[:, js, ::e // o] = (chivals[:, powers[:o, js].T] @ dft % p
                                   * pow(o, p - 2, p) % p)
    # each multiplicity is below p and each degree is below p/2, so exact
    # sums equal to the degrees make every value a sum of chi(1) e-th roots
    # of unity
    if (coeffs.sum(axis=2) != degs[:, None]).any():
        raise InternalContradiction("root-of-unity multiplicities broken")

    # one power-basis product for the whole table
    nums = _matmul(coeffs, _power_array(e), int(degs.max()), _fold_bound(e, e))
    return _finished(g, e, nums[_row_order(nums, e)])


def _abelian_rows(g: FiniteGroup) -> np.ndarray:
    """The table of an abelian group from its dual group, then one exact
    `_check_table`; the same array as `_dixon_rows`.

    a[chi, x] = t with chi(x) = zeta_e^t, e = exp(G), is extended over the
    generating set S of the group, from the trivial character on {1}.  For s
    in S, let m be the least t > 0 with s^t in the closure H so far: each chi
    on H, with c = a[chi, s^m], extends m ways, chi(s) = c/m + j e/m, and
    chi(h s^t) = chi(h) + t chi(s) for t < m.  m must divide every c, the
    closure must reach |G|, and every row must be additive on every
    generator, a[chi, x s] = a[chi, x] + a[chi, s] mod e for all x, which
    makes it a homomorphism: k n entries per generator, never all pairs.
    """
    n, e = g.order, g.exponent()
    at = np.full(n, -1, dtype=np.int64)
    at[g.identity] = 0
    elems = np.array([g.identity])
    a = np.zeros((1, 1), dtype=np.int64)
    for s in g.generators:
        powers, x = [g.identity], s
        while at[x] < 0:
            powers.append(x)
            x = int(g.mul[x, s])
        m = len(powers)
        c = a[:, at[x]]
        if (c % m).any():
            raise InternalContradiction("a character does not extend to S")
        # row (chi, j) takes chi(s) = c/m + j e/m; column (t, h) is h s^t
        t = np.arange(m)
        chi_s = (c // m)[:, None] + t * (e // m)
        a = (a[:, None, None] + chi_s[:, :, None, None] * t[:, None]) % e
        a = a.reshape(len(a) * m, -1)
        elems = g.mul[elems, np.array(powers)[:, None]].ravel()
        at[elems] = np.arange(len(elems))
    if len(elems) != n:
        raise InternalContradiction("the generating set does not reach |G|")
    a = a[:, at]
    for s in g.generators:
        if (a[:, g.mul[:, s]] != (a + a[:, s, None]) % e).any():
            raise InternalContradiction("a character is not a homomorphism")
    t = a[:, list(conjugacy_classes(g).representatives)]
    # every degree is 1, and zeta_e^t sorts as the rank of t among the e-th
    # roots of unity in the order of their `_root_keys`: k sort columns
    rank = np.argsort(_sorted_by(_root_keys(e)))
    t = t[_sorted_by(rank[t])]
    return _finished(g, e, _power_array(e)[t])


def _finished(g: FiniteGroup, e: int, nums: np.ndarray) -> np.ndarray:
    """A table's numerators at e over 1, rows in canonical order, in the
    dtype of their `_table_bound` after one exact `_check_table`."""
    bound = _table_bound(nums, e)
    nums = nums.astype(int_dtype(bound), copy=False)
    _check_table(g, e, nums, bound)
    return nums


# ---------------------------------------------------------------------------
# induction / restriction machinery


def _product_counts(rows: np.ndarray, classof: np.ndarray, k: int) -> np.ndarray:
    """cnt[j, l] = #{(x, y) : y in class j, x y in class l} over the x whose
    rows of the multiplication table are given."""
    return np.bincount((classof * k + classof[rows]).ravel(),
                       minlength=k * k).reshape(k, k)


@cached
def _induction_counts(s: Subgroup) -> np.ndarray:
    """counts[gi, hj] = #{x in G : x^-1 g x lies in H-class hj}, g a class rep.

    One gather of x^-1 g x for every class representative g and every x, a
    (classes of G) x |G| array, then one `bincount` of (gi, hj) over the
    conjugates that lie in H."""
    g = s.parent
    reps = np.array(conjugacy_classes(g).representatives, dtype=np.int64)
    part_h = conjugacy_classes(s.as_group())
    k, kh = len(reps), len(part_h)
    conj = g.mul[g.mul[g.inv, reps[:, None]], np.arange(g.order)]
    sub = s.member_index()[conj]
    gi, x = (sub >= 0).nonzero()
    return np.bincount(gi * kh + part_h.class_of[sub[gi, x]],
                       minlength=k * kh).reshape(k, kh)


@cached
def _restriction_classes(s: Subgroup) -> np.ndarray:
    """The class of G holding each class of H, in H's class order: the
    gather that restricts class functions and tables."""
    reps = s.embedding()[list(conjugacy_classes(s.as_group()).representatives)]
    return conjugacy_classes(s.parent).class_of[reps]


def restrict(chi: ClassFunction, s: Subgroup) -> ClassFunction:
    """Restrict a class function on G to the subgroup, re-classed over H: one
    gather of class values, canonicalized on the subgroup."""
    if not _same_group(chi.group, s.parent):
        raise GroupMismatch("class function does not live on the parent group")
    return ClassFunction._from_array(s.as_group(), chi.e,
                                     chi.nums[_restriction_classes(s)], chi.den)


def _induction_sums(s: Subgroup, nums: np.ndarray,
                    bound: int | None = None) -> np.ndarray:
    """|H| Ind of the class functions on H with numerators nums, of shape
    (..., classes of H, w) and at most bound (scanned when not given): one
    matmul with the induction counts, giving shape (..., classes of G, w).
    A row of counts sums to at most |G|, so the result is at most |G| bound."""
    return _matmul(_induction_counts(s), nums, s.parent.order, bound)


def induce(theta: ClassFunction, s: Subgroup) -> ClassFunction:
    """Induce a class function on the subgroup up to the parent group: one
    matmul with the induction counts, canonicalized on the parent."""
    if not _same_group(theta.group, s.as_group()):
        raise GroupMismatch("class function does not live on the subgroup")
    return ClassFunction._from_array(s.parent, theta.e,
                                     _induction_sums(s, theta.nums),
                                     theta.den * s.order)


@cached
def _conj_class_perms(s: Subgroup) -> np.ndarray:
    """For each g in G, the permutation of H-classes induced by h -> g h g^-1.

    Every row is checked to permute the H-classes, fix the identity class and
    preserve class sizes, so conjugation preserves degrees and norms.
    """
    g = s.parent
    if not is_normal(g, s):
        raise NotNormal("conjugation action needs a normal subgroup")
    part_h = conjugacy_classes(s.as_group())
    reps = s.embedding()[list(part_h.representatives)]
    sub = s.member_index()[g.mul[g.mul[:, reps], g.inv[:, None]]]
    if (sub < 0).any():
        raise NotNormal("subgroup is not closed under conjugation")
    perms = part_h.class_of[sub]
    k = len(part_h)
    sizes = np.array(part_h.sizes)
    if not ((np.sort(perms, axis=1) == np.arange(k)).all()
            and (perms[:, 0] == 0).all() and (sizes[perms] == sizes).all()):
        raise InternalContradiction(
            "conjugation does not permute the H-classes preserving sizes")
    return perms


def conjugate_character(theta: ClassFunction, s: Subgroup, g: int) -> ClassFunction:
    """theta^g with theta^g(h) = theta(g h g^-1); needs H normal in G.

    A permutation of the classes that preserves sizes (checked once per
    subgroup) keeps degree and norm, so a character stays a character and an
    irreducible stays irreducible.
    """
    if not _same_group(theta.group, s.as_group()):
        raise GroupMismatch("class function does not live on the subgroup")
    perm = _conj_class_perms(s)[g]
    cls = Character if isinstance(theta, Character) else ClassFunction
    out = cls._make(theta.group, theta.e, theta.nums[perm], theta.den)
    if cls is Character:
        out.irreducible = theta.irreducible
    return out


def _inflation_classes(qmap: QuotientMap) -> np.ndarray:
    """The class of G/N holding the image of each class of G, in G's class
    order: the gather that inflates class functions and tables."""
    reps = list(conjugacy_classes(qmap.source).representatives)
    return conjugacy_classes(qmap.group).class_of[qmap.mapping[reps]]


def _inflated_table(qmap: QuotientMap) -> np.ndarray:
    """The table of G/N inflated to G: its numerators at exp(G/N) over 1 on
    the classes of G, one gather of columns."""
    return _table_nums(qmap.group)[:, _inflation_classes(qmap)]


def inflate(beta: ClassFunction, qmap: QuotientMap) -> ClassFunction:
    """Pull a class function on G/N back to G along the projection."""
    if not _same_group(beta.group, qmap.group):
        raise GroupMismatch("class function does not live on the quotient group")
    fn = ClassFunction._from_array(qmap.source, beta.e,
                                   beta.nums[_inflation_classes(qmap)], beta.den)
    return Character.of(fn) if isinstance(beta, Character) else fn


def pointwise_product(phi: ClassFunction, psi: ClassFunction) -> ClassFunction:
    if not _same_group(phi.group, psi.group):
        raise GroupMismatch("cannot multiply class functions on different groups")
    e = lcm(phi.e, psi.e)
    prod = multiply(lift(phi.nums, phi.e, e), lift(psi.nums, psi.e, e), e)
    return ClassFunction._from_array(phi.group, e, prod, phi.den * psi.den)


def _integers(got: np.ndarray, scale) -> tuple[np.ndarray, np.ndarray]:
    """Gram numerators got (power-basis numerators at e in the last axis)
    over scale, an integer or an array of got's leading shape: the values
    that are nonnegative integers, as int64 with 0 at the others, and where
    the others are.  A value is rational exactly when its coordinates beyond
    the first vanish."""
    m = got[..., 0] // scale
    bad = (got[..., 1:] != 0).any(axis=-1) | (m * scale != got[..., 0]) | (m < 0)
    return np.where(bad, 0, m).astype(np.int64), bad


def _multiplicities(got: np.ndarray, e: int, scale: int) -> np.ndarray:
    """`_integers` of got over scale, which must all be nonnegative
    integers: NotACharacter names the first, row-major, that is not one, by
    its last index."""
    m, bad = _integers(got, scale)
    if bad.any():
        at = np.unravel_index(bad.argmax(), bad.shape)
        value = values(got[at][None], e, scale)[0]
        raise NotACharacter(
            f"multiplicity of row {at[-1]} is {value}, not a nonnegative integer")
    return m


def decompose(phi: ClassFunction, table: CharacterTable) -> list[tuple[int, int]]:
    """Multiplicities of a character in terms of table rows.

    Raises NotACharacter unless every inner product is a nonnegative rational
    integer (reconstruction is then automatic by orthonormality).
    """
    if not _same_group(phi.group, table.group):
        raise GroupMismatch("class function does not live on the table's group")
    e, (a, rows), den = align([(phi.e, phi.nums[None], phi.den),
                               (table.group.exponent(), table.nums, 1)])
    got = gram(a, rows, phi.partition.sizes, e)[0]
    mults = _multiplicities(got, e, den * den * phi.group.order)
    return [(int(i), int(mults[i])) for i in mults.nonzero()[0]]
