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
the induction counts) are array operations; inner products, both
orthogonality relations and decompositions are one `cyclotomic.gram` call on
the stored arrays.  Values outside Q(zeta_exp(G)), which only user-built
functions have, take one batched search for their minimal conductors.
``values``, the tuple of `Cyclotomic`, is built on demand by the one builder
`cyclotomic.values` for rendering, JSON, sort keys and the public API.

Tables are computed by Dixon's method: the class-sum structure constants are
simultaneously diagonalized over a prime field F_p with p = 1 (mod exponent)
and p > 2*sqrt(|G|), and the eigenvalue data is lifted back to Q(zeta_e) by
matching against roots of unity in F_p.  Every lifted table is then
re-verified exactly (orthogonality, degree sums), so the flags on the results
are earned, not assumed.  The table cache holds each table's values and its
array once.

The F_p stage works on integer arrays.  Each eigenspace split finds its
eigenvalues with one batched elimination of (img - lam * basis)^T over all
lam in F_p, taken in chunks of at most _LAMBDA_CHUNK entries so that memory
stays flat, and solves a null space only for the eigenvalues.  The lift
computes the root-of-unity multiplicities of every row at a class with one
DFT matmul over F_p.  Arrays are int64 while an exact Python-int bound on
every sum, max(k, e) * (p - 1)^2, stays below 2^62, and Python ints (dtype
object) otherwise, the same rule as `cyclotomic.gram`.
"""

from __future__ import annotations

from math import lcm

import numpy as np

from .arith import divisors, is_prime
from .cyclotomic import (Cyclotomic, descend, encode, gram, int_dtype, lift,
                         minimal_conductors, multiply, power_basis, reduced,
                         scaled, values)
from .errors import (GroupMismatch, InternalContradiction, NotACharacter,
                     NotNormal, TooLarge)
from .groups import (FiniteGroup, QuotientMap, Subgroup,
                     conjugacy_classes, is_normal)
from .groups import DEFAULT_MAX_ORDER

__all__ = [
    "ClassFunction", "Character", "CharacterTable", "character_table",
    "inner_product", "inner_product_matrix", "restrict", "induce",
    "conjugate_character", "inflate", "pointwise_product", "decompose",
]


# Dixon's method keeps k structure-constant matrices of k x k: with k = 256
# (C4^4) a table takes 7.7 s and 179 MB VmHWM on a 2-vCPU Xeon, and k = 216
# (C6xC6xC6, the largest catalog product) 8.0 s and 122 MB; both grow as k^3
MAX_TABLE_CLASSES = 256

# at most this many entries in one batched elimination stack of `_split_space`
_LAMBDA_CHUNK = 1 << 15


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


def _encoded(base: int, rows) -> tuple[int, np.ndarray, int]:
    """Rows of exact values on a group of exponent `base` as one array of
    shape (rows, classes, phi(e)), e = lcm(base, conductors), over one
    denominator in lowest terms."""
    coeffs, den = encode(rows)
    e = coeffs.shape[2]
    big = lcm(e, base)
    return (big, *reduced(lift(power_basis(coeffs, e), e, big), den))


def _aligned(fns) -> tuple[int, np.ndarray, int]:
    """Numerators of class functions over one conductor e and one denominator:
    (e, array of shape (functions, classes, phi(e)), den)."""
    e = lcm(*(fn.e for fn in fns))
    den = lcm(*(fn.den for fn in fns))
    return e, np.stack([scaled(lift(fn.nums, fn.e, e), den // fn.den)
                        for fn in fns]), den


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
        e, nums, den = _encoded(group.exponent(), [vals])
        self._set(group, e, nums[0], den, vals)

    def _set(self, group: FiniteGroup, e: int, nums: np.ndarray, den: int,
             values=None) -> None:
        self.group = group
        self.partition = conjugacy_classes(group)
        nums.setflags(write=False)
        self.e, self.nums, self.den = e, nums, den
        self._values = values

    @classmethod
    def _make(cls, group: FiniteGroup, e: int, nums: np.ndarray, den: int,
              values=None):
        """A function from a stored form that is already canonical."""
        fn = cls.__new__(cls)
        fn._set(group, e, nums, den, values)
        return fn

    @classmethod
    def _from_array(cls, group: FiniteGroup, e: int, nums: np.ndarray,
                    den: int) -> "ClassFunction":
        """The function with values nums / den in Q(zeta_e), canonicalized."""
        return cls._make(group, *_canonical(group.exponent(), e, nums, den))

    @property
    def values(self) -> tuple[Cyclotomic, ...]:
        if self._values is None:
            self._values = tuple(values(self.nums, self.e, self.den))
        return self._values

    def _value(self, c: int) -> Cyclotomic:
        if self._values is not None:
            return self._values[c]
        return values(self.nums[c:c + 1], self.e, self.den)[0]

    def __call__(self, g: int) -> Cyclotomic:
        return self._value(int(self.partition.class_of[g]))

    def at_identity(self) -> Cyclotomic:
        return self(self.group.identity)

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

    def _same_values(self, other: "ClassFunction") -> bool:
        return (self.e == other.e and self.den == other.den
                and np.array_equal(self.nums, other.nums))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return _same_group(self.group, other.group) and self._same_values(other)

    def __hash__(self) -> int:
        nums = self.nums
        key = (tuple(nums.ravel().tolist()) if nums.dtype == object
               else nums.tobytes())
        return hash((self.e, self.den, key))

    def sort_key(self):
        return tuple(v.sort_key() for v in self.values)

    def __repr__(self) -> str:
        vals = ", ".join(str(v) for v in self.values)
        return f"ClassFunction[{vals}]"


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
        chi = cls._make(fn.group, fn.e, fn.nums, fn.den, fn._values)
        chi._certify(irreducible)
        return chi

    def _certify(self, irreducible: bool) -> None:
        deg = self.nums[int(self.partition.class_of[self.group.identity])]
        if deg[1:].any() or int(deg[0]) % self.den or deg[0] < 1:
            raise NotACharacter(
                f"degree {self.at_identity()} is not a positive integer")
        if irreducible and inner_product(self, self) != 1:
            raise NotACharacter("character claimed irreducible has norm != 1")
        self.irreducible = irreducible

    @property
    def degree(self) -> int:
        c0 = int(self.partition.class_of[self.group.identity])
        return int(self.nums[c0, 0]) // self.den

    def __repr__(self) -> str:
        vals = ", ".join(str(v) for v in self.values)
        return f"Character[{vals}]"


def inner_product(phi: ClassFunction, psi: ClassFunction) -> Cyclotomic:
    """(1/|G|) sum over G of phi(g) * conj(psi(g)), computed classwise."""
    return inner_product_matrix([phi], [psi])[0][0]


def inner_product_matrix(phis, psis) -> list[list[Cyclotomic]]:
    """All <phi, psi> for phi in phis, psi in psis, from one Gram kernel call."""
    phis, psis = list(phis), list(psis)
    g = phis[0].group
    if not all(_same_group(g, fn.group) for fn in phis + psis):
        raise GroupMismatch("inner product needs both functions on one group")
    e, nums, den = _aligned(phis + psis)
    got = gram(nums[:len(phis)], nums[len(phis):], phis[0].partition.sizes, e)
    flat = values(got.reshape(-1, got.shape[2]), e, den * den * g.order)
    return [flat[i:i + len(psis)] for i in range(0, len(flat), len(psis))]


def _first_off_delta(got: np.ndarray, diag: list[int]):
    """First (i, j), row-major, where got[i, j] is not diag[i] * delta_ij."""
    want = np.zeros(got.shape, dtype=object)
    want[range(len(diag)), range(len(diag)), 0] = diag
    hits = np.argwhere((got != want).any(axis=2))
    return tuple(int(x) for x in hits[0]) if len(hits) else None


def _dixon_prime(exponent: int, order: int) -> int:
    """Smallest prime p with p = 1 (mod exponent) and p > 2*sqrt(order)."""
    p = exponent + 1 if exponent > 1 else 2
    while True:
        if p * p > 4 * order and is_prime(p):
            return p
        p += exponent if exponent > 1 else 1


def _inverses(a: np.ndarray, p: int) -> np.ndarray:
    """Elementwise inverse mod p (0 maps to 0)."""
    return np.array([pow(int(x), p - 2, p) for x in a], dtype=a.dtype)


def _nullities(stack: np.ndarray, p: int) -> np.ndarray:
    """d - rank over F_p of every matrix in an (L, k, d) stack, at once.

    Fraction-free elimination, column by column: each member takes its first
    nonzero row as pivot and every row r becomes piv * r - r[c] * pivot row.
    That zeroes the pivot row itself, so used rows are never picked again and
    no row swaps are needed.
    """
    a = stack % p
    idx = np.arange(a.shape[0])
    rank = np.zeros(a.shape[0], dtype=np.int64)
    while a.shape[2]:
        col, a = a[:, :, 0], a[:, :, 1:]
        nonzero = col != 0
        has = nonzero.any(axis=1)
        if not has.any():
            continue
        piv = nonzero.argmax(axis=1)
        pval = np.where(has, col[idx, piv], 1)
        prow = a[idx, piv]
        a = (a * pval[:, None, None] - col[:, :, None] * prow[:, None, :]) % p
        rank += has
    return stack.shape[2] - rank


def _null_space(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of {x : a x = 0} over F_p, one row per free column (RREF)."""
    a = a % p
    rows, cols = a.shape
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        nz = np.flatnonzero(a[r:, c])
        if not len(nz):
            continue
        a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        f = a[:, c].copy()
        f[r] = 0
        a = (a - f[:, None] * a[r]) % p
        pivots.append(c)
        if len(pivots) == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=a.dtype)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = (-a[:len(pivots), free]).T % p
    return basis


def _split_space(mat: np.ndarray, basis: np.ndarray, p: int) -> list[np.ndarray]:
    """Split a subspace (rows of `basis`) into eigenspaces of `mat` over F_p.

    The eigenvalues are found by one batched elimination of the stack
    (img - lam * basis)^T over lam in F_p, in chunks of at most
    _LAMBDA_CHUNK entries; a null space is solved only for lam of nonzero
    nullity.
    """
    d, k = basis.shape
    img = basis @ mat.T % p
    out: list[np.ndarray] = []
    found = 0
    step = max(1, _LAMBDA_CHUNK // (k * d))
    for lo in range(0, p, step):
        lams = np.arange(lo, min(lo + step, p)).astype(basis.dtype)
        stack = ((img - lams[:, None, None] * basis) % p).transpose(0, 2, 1)
        for i in np.flatnonzero(_nullities(stack, p)):
            ker = _null_space(stack[i], p)
            out.append(ker @ basis % p)
            found += len(ker)
        if found == d:
            return out
    raise InternalContradiction("class algebra failed to split over F_p")


class CharacterTable:
    """The full set of irreducible characters in canonical order.

    Rows sort by degree then lexicographically on values; columns follow the
    canonical class order of the group.
    """

    def __init__(self, group: FiniteGroup, rows: tuple[Character, ...]) -> None:
        self.group = group
        self.partition = conjugacy_classes(group)
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, i: int) -> Character:
        return self.rows[i]

    def degrees(self) -> tuple[int, ...]:
        return tuple(r.degree for r in self.rows)

    def index_of(self, fn: ClassFunction) -> int:
        for i, row in enumerate(self.rows):
            if row._same_values(fn):
                return i
        raise ValueError("class function is not a row of this table")

    def validate(self) -> None:
        """Re-check all table invariants exactly; raises on any failure."""
        n = self.group.order
        k = len(self.partition)
        if len(self.rows) != k:
            raise InternalContradiction("row count differs from class count")
        if sum(r.degree ** 2 for r in self.rows) != n:
            raise InternalContradiction("degree squares do not sum to |G|")
        e, vals, den = _aligned(self.rows)
        sizes = self.partition.sizes
        # sum_c |C| chi_i(c) conj(chi_j(c)) = |G| delta_ij, on numerators
        bad = _first_off_delta(gram(vals, vals, sizes, e), [n * den * den] * k)
        if bad:
            raise InternalContradiction(f"row orthogonality fails at {bad}")
        # sum_chi chi(c_i) conj(chi(c_j)) = (|G| / |C_i|) delta_ij
        cols = vals.transpose(1, 0, 2)
        bad = _first_off_delta(gram(cols, cols, [1] * k, e),
                               [n // sz * den * den for sz in sizes])
        if bad:
            raise InternalContradiction(f"column orthogonality fails at {bad}")

    def render_text(self) -> str:
        part = self.partition
        k = len(part)
        name = self.group.name or "group"
        head = f"character table of {name} (order {self.group.order}, {k} classes)"
        all_rows = [["class"] + [str(i) for i in range(k)],
                    ["size"] + [str(s) for s in part.sizes],
                    ["rep"] + [str(r) for r in part.representatives]]
        for i, row in enumerate(self.rows):
            all_rows.append([f"X{i + 1}"] + [str(v) for v in row.values])
        widths = [max(len(r[c]) for r in all_rows) for c in range(k + 1)]
        lines = ["  ".join(v.rjust(w) for v, w in zip(r, widths))
                 for r in all_rows]
        return "\n".join([head] + lines)

    def to_json_dict(self) -> dict:
        part = self.partition
        return {
            "group": self.group.name,
            "order": self.group.order,
            "class_sizes": list(part.sizes),
            "class_representatives": list(part.representatives),
            "rows": [
                {
                    "degree": row.degree,
                    "values": [
                        {"conductor": v.order, "coeffs": v.coeff_pairs()}
                        for v in row.values
                    ],
                }
                for row in self.rows
            ],
        }


def character_table(g: FiniteGroup,
                    max_order: int = DEFAULT_MAX_ORDER) -> CharacterTable:
    """Exact irreducible character table; equal tables share its row values.

    The shared cache holds values only, never characters bound to a group, so
    it does not keep any group alive.
    """
    if g.order > max_order:
        raise TooLarge(f"group order {g.order} exceeds the cap of {max_order}")
    k = len(conjugacy_classes(g))
    if k > MAX_TABLE_CLASSES:
        raise TooLarge(f"{k} classes exceed the cap of {MAX_TABLE_CLASSES} "
                       "for a character table")
    cache = g._cache
    if "table_rows" not in cache:
        cache["table_rows"] = _dixon_rows(g)
    e = g.exponent()
    if "table_nums" not in cache:
        # one array for the whole table, row i is chi_i; character values are
        # algebraic integers in Q(zeta_exp(G))
        got, nums, den = _encoded(e, cache["table_rows"])
        if got != e or den != 1:
            raise InternalContradiction(
                "table values are not integers of Q(zeta_exp(G))")
        nums.setflags(write=False)
        cache["table_nums"] = nums
    nums = cache["table_nums"]
    rows = tuple(Character._make(g, e, nums[i], 1, vals)
                 for i, vals in enumerate(cache["table_rows"]))
    # the cached rows passed one exact validate(), norms included
    for c in rows:
        c.irreducible = True
    return CharacterTable(g, rows)


def _dixon_rows(g: FiniteGroup) -> tuple[tuple[Cyclotomic, ...], ...]:
    """Dixon's method, then one exact `validate` of the whole table."""
    part = conjugacy_classes(g)
    k = len(part)
    n = g.order
    e = g.exponent()
    p = _dixon_prime(e, n)
    sizes = np.array(part.sizes, dtype=np.int64)
    classof = part.class_of
    # every product below sums at most max(k, e) terms below p^2
    dtype = int_dtype(max(k, e) * (p - 1) ** 2)

    # mats[i][j, l] = #{(x, y) in C_i x C_j : x y = z} for any z in C_l,
    # from one count of (class of y, class of x y) over x in C_i, y in G
    mats = []
    for cls in part.classes:
        prods = classof[g.mul[np.array(cls, dtype=np.int64)]]
        cnt = np.bincount((classof * k + prods).ravel(),
                          minlength=k * k).reshape(k, k)
        if np.any(cnt % sizes):
            raise InternalContradiction("structure constants not class-constant")
        mats.append((cnt // sizes % p).astype(dtype))

    spaces = [np.eye(k, dtype=dtype)]
    for mat in mats:
        if all(len(s) == 1 for s in spaces):
            break
        spaces = [piece for s in spaces
                  for piece in (_split_space(mat, s, p) if len(s) > 1 else [s])]
    if not all(len(s) == 1 for s in spaces):
        raise InternalContradiction("simultaneous diagonalization incomplete")

    # scale each eigenvector to 1 at the identity class, recover the degrees
    c0 = int(classof[g.identity])
    vecs = np.concatenate(spaces)
    if np.any(vecs[:, c0] == 0):
        raise InternalContradiction("central character vanishes at identity")
    vecs = vecs * _inverses(vecs[:, c0], p)[:, None] % p
    reps = np.array(part.representatives, dtype=np.int64)
    inv_sizes = _inverses(sizes.astype(dtype), p)
    norms = (vecs * vecs[:, classof[g.inv[reps]]] % p) @ inv_sizes % p
    square_root = np.zeros(p, dtype=np.int64)
    roots = np.arange(1, (p + 1) // 2)
    square_root[roots * roots % p] = roots
    degs = square_root[(n % p * _inverses(norms, p) % p).astype(np.int64)]
    if np.any(degs == 0):
        raise InternalContradiction("degree recovery failed")
    chivals = degs.astype(dtype)[:, None] * vecs % p * inv_sizes % p

    # primitive e-th root of unity in F_p, smallest for determinism
    def _has_order_e(w: int) -> bool:
        return (pow(w, e, p) == 1
                and all(pow(w, e // q, p) != 1
                        for q in divisors(e) if is_prime(q)))

    w = 1
    if e > 1:
        w = next(c for c in range(2, p) if _has_order_e(c))
    w_powers = np.array([pow(w, t, p) for t in range(e)], dtype=dtype)

    # powers[t, j] = class of reps[j]^t
    orders = [g.element_order(int(r)) for r in reps]
    cur = np.full(k, g.identity, dtype=np.int64)
    powers = [cur]
    for _ in range(max(orders) - 1):
        cur = g.mul[cur, reps]
        powers.append(cur)
    powers = classof[np.array(powers)]

    # multiplicity of zeta_o^m in chi(g_j), o = o(g_j), for every row at once:
    # (1/o) sum_t chi(g_j^t) zeta_o^(-m t), one DFT matmul over F_p
    cols = []
    dft: dict[int, np.ndarray] = {}
    for j, o in enumerate(orders):
        if o not in dft:
            t = np.arange(o)
            dft[o] = w_powers[-(e // o) * np.outer(t, t) % e]
        mult = chivals[:, powers[:o, j]] @ dft[o] % p * pow(o, p - 2, p) % p
        if np.any(mult.sum(axis=1) != degs):
            raise InternalContradiction("root-of-unity multiplicities broken")
        cols.append(values(power_basis(mult, o), o))

    chars = [Character(g, vals) for vals in zip(*cols)]
    chars.sort(key=lambda c: (c.degree, c.sort_key()))
    CharacterTable(g, tuple(chars)).validate()
    return tuple(c.values for c in chars)


# ---------------------------------------------------------------------------
# induction / restriction machinery


def _induction_counts(s: Subgroup) -> np.ndarray:
    """counts[gi, hj] = #{x in G : x^-1 g x lies in H-class hj}, g a class rep."""
    if "ind_counts" in s._cache:
        return s._cache["ind_counts"]
    g = s.parent
    k_sub = s.as_group()
    part_g = conjugacy_classes(g)
    part_h = conjugacy_classes(k_sub)
    member = s.member_index()
    xs = np.arange(g.order)
    counts = np.zeros((len(part_g), len(part_h)), dtype=np.int64)
    for ci, rep in enumerate(part_g.representatives):
        y = g.mul[g.mul[g.inv[xs], rep], xs]
        sub = member[y]
        inside = sub[sub >= 0]
        if len(inside):
            counts[ci] = np.bincount(part_h.class_of[inside],
                                     minlength=len(part_h))
    counts.setflags(write=False)
    s._cache["ind_counts"] = counts
    return counts


def restrict(chi: ClassFunction, s: Subgroup) -> ClassFunction:
    """Restrict a class function on G to the subgroup, re-classed over H."""
    if not _same_group(chi.group, s.parent):
        raise GroupMismatch("class function does not live on the parent group")
    k_sub = s.as_group()
    reps = s.embedding()[list(conjugacy_classes(k_sub).representatives)]
    classes = chi.partition.class_of[reps]
    return ClassFunction._from_array(k_sub, chi.e, chi.nums[classes], chi.den)


def induce(theta: ClassFunction, s: Subgroup) -> ClassFunction:
    """Induce a class function on the subgroup up to the parent group."""
    if not _same_group(theta.group, s.as_group()):
        raise GroupMismatch("class function does not live on the subgroup")
    # a count row sums to at most |G|
    dtype = int_dtype(s.parent.order * int(np.abs(theta.nums).max()))
    sums = _induction_counts(s).astype(dtype) @ theta.nums.astype(dtype, copy=False)
    return ClassFunction._from_array(s.parent, theta.e, sums, theta.den * s.order)


def _conj_class_perms(s: Subgroup) -> np.ndarray:
    """For each g in G, the permutation of H-classes induced by h -> g h g^-1.

    Every row is checked to permute the H-classes, fix the identity class and
    preserve class sizes, so conjugation preserves degrees and norms.
    """
    if "conj_perms" in s._cache:
        return s._cache["conj_perms"]
    g = s.parent
    if not is_normal(g, s):
        raise NotNormal("conjugation action needs a normal subgroup")
    part_h = conjugacy_classes(s.as_group())
    reps = s.embedding()[list(part_h.representatives)]
    sub = s.member_index()[g.mul[g.mul[:, reps], g.inv[:, None]]]
    if np.any(sub < 0):
        raise NotNormal("subgroup is not closed under conjugation")
    perms = part_h.class_of[sub]
    k = len(part_h)
    sizes = np.array(part_h.sizes)
    if not (np.array_equal(np.sort(perms, axis=1),
                           np.broadcast_to(np.arange(k), perms.shape))
            and np.all(perms[:, 0] == 0) and np.all(sizes[perms] == sizes)):
        raise InternalContradiction(
            "conjugation does not permute the H-classes preserving sizes")
    perms.setflags(write=False)
    s._cache["conj_perms"] = perms
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
    vals = (None if theta._values is None
            else tuple(theta._values[c] for c in perm))
    cls = Character if isinstance(theta, Character) else ClassFunction
    out = cls._make(theta.group, theta.e, theta.nums[perm], theta.den, vals)
    if cls is Character:
        out.irreducible = theta.irreducible
    return out


def inflate(beta: ClassFunction, qmap: QuotientMap) -> ClassFunction:
    """Pull a class function on G/N back to G along the projection."""
    if not _same_group(beta.group, qmap.group):
        raise GroupMismatch("class function does not live on the quotient group")
    src = qmap.source
    reps = list(conjugacy_classes(src).representatives)
    classes = beta.partition.class_of[qmap.mapping[reps]]
    fn = ClassFunction._from_array(src, beta.e, beta.nums[classes], beta.den)
    return Character.of(fn) if isinstance(beta, Character) else fn


def pointwise_product(phi: ClassFunction, psi: ClassFunction) -> ClassFunction:
    if not _same_group(phi.group, psi.group):
        raise GroupMismatch("cannot multiply class functions on different groups")
    e = lcm(phi.e, psi.e)
    prod = multiply(lift(phi.nums, phi.e, e), lift(psi.nums, psi.e, e), e)
    return ClassFunction._from_array(phi.group, e, prod, phi.den * psi.den)


def decompose(phi: ClassFunction, table: CharacterTable) -> list[tuple[int, int]]:
    """Multiplicities of a character in terms of table rows.

    Raises NotACharacter unless every inner product is a nonnegative rational
    integer (reconstruction is then automatic by orthonormality).  Integrality
    is read off the Gram numerators: a value is rational exactly when its
    power-basis coordinates beyond the first vanish.
    """
    if not _same_group(phi.group, table.group):
        raise GroupMismatch("class function does not live on the table's group")
    e, nums, den = _aligned([phi, *table.rows])
    got = gram(nums[:1], nums[1:], phi.partition.sizes, e)[0]
    scale = den * den * phi.group.order
    out = []
    for i, v in enumerate(got):
        m, rest = divmod(int(v[0]), scale)
        if v[1:].any() or rest or m < 0:
            value = values(v[None], e, scale)[0]
            raise NotACharacter(
                f"multiplicity of row {i} is {value}, not a nonnegative integer")
        if m:
            out.append((i, m))
    return out
