"""Exact irreducible character tables and the class-function calculus.

Tables are computed by Dixon's method: the class-sum structure constants are
simultaneously diagonalized over a prime field F_p with p = 1 (mod exponent)
and p > 2*sqrt(|G|), and the eigenvalue data is lifted back to Q(zeta_e) by
matching against roots of unity in F_p.  Every lifted row is then re-verified
exactly (orthogonality, degree sums), so the flags on the results are earned,
not assumed.

Inner products and both orthogonality relations go through one batched
integer kernel, `cyclotomic.gram`; values become `Cyclotomic` objects again
only where a caller needs them.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .arith import divisors, is_prime
from .cyclotomic import Cyclotomic, cyclo_sum, encode, gram
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


def _same_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    return a._cache is b._cache


class ClassFunction:
    """A function on a group constant on conjugacy classes, with exact values."""

    def __init__(self, group: FiniteGroup, values) -> None:
        self.group = group
        self.partition = conjugacy_classes(group)
        vals = tuple(v if isinstance(v, Cyclotomic) else Cyclotomic.from_rational(v)
                     for v in values)
        if len(vals) != len(self.partition):
            raise ValueError(
                f"need {len(self.partition)} class values, got {len(vals)}")
        self.values = vals

    def __call__(self, g: int) -> Cyclotomic:
        return self.values[int(self.partition.class_of[g])]

    def at_identity(self) -> Cyclotomic:
        return self(self.group.identity)

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        if not isinstance(other, ClassFunction):
            return NotImplemented
        if not _same_group(self.group, other.group):
            raise GroupMismatch("cannot add class functions on different groups")
        return ClassFunction(self.group,
                             [a + b for a, b in zip(self.values, other.values)])

    def scale(self, c) -> "ClassFunction":
        return ClassFunction(self.group, [v * c for v in self.values])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return (_same_group(self.group, other.group)
                and self.values == other.values)

    def __hash__(self) -> int:
        return hash(self.values)

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

    def __init__(self, group: FiniteGroup, values, irreducible: bool = False) -> None:
        super().__init__(group, values)
        deg = self.at_identity()
        if not deg.is_integer() or deg.as_integer() < 1:
            raise NotACharacter(f"degree {deg} is not a positive integer")
        if irreducible and inner_product(self, self) != 1:
            raise NotACharacter("character claimed irreducible has norm != 1")
        self.irreducible = irreducible

    @property
    def degree(self) -> int:
        return self.at_identity().as_integer()

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
    vals, den = encode(fn.values for fn in phis + psis)
    nums = gram(vals[:len(phis)], vals[len(phis):], phis[0].partition.sizes)
    e = vals.shape[2]
    scale = den * den * g.order
    return [[Cyclotomic._build(e, [int(c) for c in v], scale) for v in row]
            for row in nums]


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


def _mod_kernel(rows: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    """Basis of the null space of a matrix over F_p (RREF back-substitution)."""
    m = [r[:] for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] % p), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(v * inv) % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] % p:
                f = m[i][c]
                m[i] = [(v - f * w) % p for v, w in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-m[i][fc]) % p
        basis.append(vec)
    return basis


def _split_space(mat: list[list[int]], basis: list[list[int]], p: int):
    """Split a subspace (list of basis vectors) into eigenspaces of `mat`."""
    k = len(mat)
    d = len(basis)
    img = [[sum(mat[r][c] * vec[c] for c in range(k)) % p for r in range(k)]
           for vec in basis]
    out = []
    found = 0
    for lam in range(p):
        rows = [[(img[j][r] - lam * basis[j][r]) % p for j in range(d)]
                for r in range(k)]
        ker = _mod_kernel(rows, d, p)
        if ker:
            space = [[sum(coeffs[j] * basis[j][r] for j in range(d)) % p
                      for r in range(k)]
                     for coeffs in ker]
            out.append(space)
            found += len(ker)
            if found == d:
                break
    if found != d:
        raise InternalContradiction("class algebra failed to split over F_p")
    return out


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
            if row.values == fn.values:
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
        vals, den = encode(r.values for r in self.rows)
        sizes = self.partition.sizes
        # sum_c |C| chi_i(c) conj(chi_j(c)) = |G| delta_ij, on numerators
        bad = _first_off_delta(gram(vals, vals, sizes), [n * den * den] * k)
        if bad:
            raise InternalContradiction(f"row orthogonality fails at {bad}")
        # sum_chi chi(c_i) conj(chi(c_j)) = (|G| / |C_i|) delta_ij
        cols = vals.transpose(1, 0, 2)
        bad = _first_off_delta(gram(cols, cols, [1] * k),
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
    if "table_rows" not in g._cache:
        g._cache["table_rows"] = _dixon_rows(g)
    rows = tuple(Character(g, vals) for vals in g._cache["table_rows"])
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
    sizes = part.sizes
    classes = [np.array(c, dtype=np.int64) for c in part.classes]
    classof = part.class_of

    mats = []
    for i in range(k):
        m = np.zeros((k, k), dtype=np.int64)
        for j in range(k):
            prods = g.mul[np.ix_(classes[i], classes[j])]
            cnt = np.bincount(classof[prods].ravel(), minlength=k)
            if np.any(cnt % sizes):
                raise InternalContradiction("structure constants not class-constant")
            m[j] = cnt // np.array(sizes)
        mats.append([[int(v) % p for v in row] for row in m])

    spaces: list[list[list[int]]] = [[[int(r == c) for r in range(k)]
                                      for c in range(k)]]
    for mat in mats:
        if all(len(s) == 1 for s in spaces):
            break
        nxt: list[list[list[int]]] = []
        for space in spaces:
            if len(space) == 1:
                nxt.append(space)
            else:
                nxt.extend(_split_space(mat, space, p))
        spaces = nxt
    if not all(len(s) == 1 for s in spaces):
        raise InternalContradiction("simultaneous diagonalization incomplete")

    c0 = int(classof[g.identity])
    inv_sizes = [pow(sz, p - 2, p) for sz in sizes]
    inv_class = [int(classof[g.inv[part.representatives[j]]]) for j in range(k)]

    # primitive e-th root of unity in F_p, smallest for determinism
    def _has_order_e(w: int) -> bool:
        return (pow(w, e, p) == 1
                and all(pow(w, e // q, p) != 1
                        for q in divisors(e) if is_prime(q)))

    w = 1
    if e > 1:
        w = next(c for c in range(2, p) if _has_order_e(c))

    reps = part.representatives
    orders = [g.element_order(r) for r in reps]
    powmaps = []
    for j, r in enumerate(reps):
        pm = [c0]
        x = g.identity
        for _ in range(orders[j] - 1):
            x = int(g.mul[x, r])
            pm.append(int(classof[x]))
        powmaps.append(pm)

    rows = []
    for space in spaces:
        v = space[0]
        if v[c0] % p == 0:
            raise InternalContradiction("central character vanishes at identity")
        scale = pow(v[c0], p - 2, p)
        v = [(x * scale) % p for x in v]
        s = sum(v[j] * v[inv_class[j]] * inv_sizes[j] for j in range(k)) % p
        d2 = (n * pow(s, p - 2, p)) % p
        deg = next((r for r in range(1, (p + 1) // 2) if (r * r) % p == d2), None)
        if deg is None:
            raise InternalContradiction("degree recovery failed")
        chivals_p = [(deg * v[j] * inv_sizes[j]) % p for j in range(k)]
        values = []
        for j in range(k):
            nj = orders[j]
            step = e // nj
            inv_nj = pow(nj, p - 2, p)
            mult = []
            for m in range(nj):
                acc = 0
                for t in range(nj):
                    expo = (-step * m * t) % e
                    acc += chivals_p[powmaps[j][t]] * pow(w, expo, p)
                mult.append((acc * inv_nj) % p)
            if sum(mult) != deg:
                raise InternalContradiction("root-of-unity multiplicities broken")
            val = cyclo_sum(Cyclotomic.zeta(e, step * m) * c
                            for m, c in enumerate(mult) if c)
            values.append(val)
        rows.append(values)

    chars = [Character(g, vals) for vals in rows]
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
    part_h = conjugacy_classes(k_sub)
    emb = s.embedding()
    vals = [chi(int(emb[rep])) for rep in part_h.representatives]
    return ClassFunction(k_sub, vals)


def induce(theta: ClassFunction, s: Subgroup) -> ClassFunction:
    """Induce a class function on the subgroup up to the parent group."""
    if not _same_group(theta.group, s.as_group()):
        raise GroupMismatch("class function does not live on the subgroup")
    counts = _induction_counts(s)
    inv_h = Fraction(1, s.order)
    vals = []
    for ci in range(counts.shape[0]):
        row = counts[ci]
        total = cyclo_sum(theta.values[hj] * int(row[hj])
                          for hj in range(len(row)) if row[hj])
        vals.append(total * inv_h)
    return ClassFunction(s.parent, vals)


def _conj_class_perms(s: Subgroup) -> np.ndarray:
    """For each g in G, the permutation of H-classes induced by h -> g h g^-1."""
    if "conj_perms" in s._cache:
        return s._cache["conj_perms"]
    g = s.parent
    if not is_normal(g, s):
        raise NotNormal("conjugation action needs a normal subgroup")
    k_sub = s.as_group()
    part_h = conjugacy_classes(k_sub)
    member = s.member_index()
    emb = s.embedding()
    reps = np.array([int(emb[r]) for r in part_h.representatives], dtype=np.int64)
    perms = np.empty((g.order, len(part_h)), dtype=np.int64)
    for x in range(g.order):
        conj = g.mul[g.mul[x, reps], g.inv[x]]
        sub = member[conj]
        if np.any(sub < 0):
            raise NotNormal("subgroup is not closed under conjugation")
        perms[x] = part_h.class_of[sub]
    perms.setflags(write=False)
    s._cache["conj_perms"] = perms
    return perms


def conjugate_character(theta: ClassFunction, s: Subgroup, g: int) -> ClassFunction:
    """theta^g with theta^g(h) = theta(g h g^-1); needs H normal in G."""
    if not _same_group(theta.group, s.as_group()):
        raise GroupMismatch("class function does not live on the subgroup")
    perm = _conj_class_perms(s)[g]
    vals = [theta.values[int(perm[c])] for c in range(len(perm))]
    if isinstance(theta, Character):
        return Character(theta.group, vals, irreducible=theta.irreducible)
    return ClassFunction(theta.group, vals)


def inflate(beta: ClassFunction, qmap: QuotientMap) -> ClassFunction:
    """Pull a class function on G/N back to G along the projection."""
    if not _same_group(beta.group, qmap.group):
        raise GroupMismatch("class function does not live on the quotient group")
    src = qmap.source
    part = conjugacy_classes(src)
    qpart = conjugacy_classes(qmap.group)
    vals = [beta.values[int(qpart.class_of[qmap(rep)])]
            for rep in part.representatives]
    if isinstance(beta, Character):
        return Character(src, vals, irreducible=False)
    return ClassFunction(src, vals)


def pointwise_product(phi: ClassFunction, psi: ClassFunction) -> ClassFunction:
    if not _same_group(phi.group, psi.group):
        raise GroupMismatch("cannot multiply class functions on different groups")
    return ClassFunction(phi.group,
                         [a * b for a, b in zip(phi.values, psi.values)])


def decompose(phi: ClassFunction, table: CharacterTable) -> list[tuple[int, int]]:
    """Multiplicities of a character in terms of table rows.

    Raises NotACharacter unless every inner product is a nonnegative rational
    integer (reconstruction is then automatic by orthonormality).
    """
    if not _same_group(phi.group, table.group):
        raise GroupMismatch("class function does not live on the table's group")
    out = []
    for i, m in enumerate(inner_product_matrix([phi], table.rows)[0]):
        if not m.is_integer() or m.as_integer() < 0:
            raise NotACharacter(
                f"multiplicity of row {i} is {m}, not a nonnegative integer")
        if m.as_integer():
            out.append((i, m.as_integer()))
    return out
