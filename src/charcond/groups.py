"""Finite groups as explicit multiplication tables on elements 0..order-1.

Every table is validated at construction, so everything downstream can trust
the axioms: rows and columns are permutations, the identity and inverses are
two-sided, and associativity is certified by Light's test over a greedy
generating set, in O(n^2 log n) rather than O(n^3).  Permutation groups are
closed breadth first on integer arrays.  Normal subgroups are the
intersections of kernels of irreducible characters, read off the character
table and each checked as a normal subgroup; the derived subgroup is the
intersection of the kernels of the linear characters.  Tables, conjugacy data
and subgroup machinery use numpy for the integer combinatorics; all objects
are immutable after construction.
"""

from __future__ import annotations

import io
import weakref
import zlib
from math import lcm
from pathlib import Path

import numpy as np

from .arith import is_prime
from .errors import (InternalContradiction, InvalidData, NotAGroup,
                     NotNormal, TooLarge)

# The order cap of builds and tables, from measured cost on a 2-vCPU Xeon
# (Python 3.11, numpy 2.4): the table of S7 (order 5040, from a 3-line
# permutation file) takes 2.3 to 2.9 s and 380 MB VmHWM in a fresh
# interpreter, most of it to build and certify the group.  The int64 table is
# 8 n^2 bytes, so the next symmetric-group size, 10080, would need 813 MB
# before any other work.
DEFAULT_MAX_ORDER = 5040

# at most this many products in one block of the table checks, closures and
# the subgroup and normality checks, so that memory stays flat
_CLOSURE_BLOCK = 1 << 20


class _TableCache(dict):
    """Data derived from one multiplication table; weakly referenceable."""

    def __init__(self, mul: np.ndarray) -> None:
        super().__init__()
        self.mul = mul


# (order, CRC-32, Adler-32 of the table) -> cache; a cache is shared only
# with an equal table, so a checksum collision costs sharing, not correctness
_TABLE_CACHES = weakref.WeakValueDictionary()


class FiniteGroup:
    """A finite group given by its multiplication table.

    Elements are the indices 0..order-1.  ``mul[a, b]`` is the product a*b,
    ``inv[a]`` the inverse of a.  ``labels`` are optional display strings.
    Instances compare and hash by identity.  Groups with byte-identical tables
    share ``_cache`` (exponent, classes, table rows), so ``a._cache is b._cache``
    tests equal tables.  Normal subgroups are memoized per object as element
    sets with their subgroup caches, never as subgroups pointing back at the
    group, so a group is freed as soon as it is unreachable.
    """

    def __init__(self, mul: np.ndarray, identity: int, inv: np.ndarray,
                 labels: tuple[str, ...] | None = None,
                 name: str | None = None) -> None:
        self.mul = mul
        self.order = int(len(mul))
        self.identity = int(identity)
        self.inv = inv
        self.labels = labels
        self.name = name
        narrow = mul.astype(np.min_scalar_type(self.order), order="C")
        key = (self.order, zlib.crc32(narrow), zlib.adler32(narrow))
        cache = _TABLE_CACHES.get(key)
        if cache is None or not np.array_equal(cache.mul, mul):
            cache = _TableCache(mul)
            _TABLE_CACHES.setdefault(key, cache)
        self._cache = cache
        # (elements, subgroup cache) per normal subgroup, once computed
        self._normal_subgroups: tuple | None = None
        mul.setflags(write=False)
        inv.setflags(write=False)

    def mul_elem(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def inv_elem(self, a: int) -> int:
        return int(self.inv[a])

    def conj_elem(self, g: int, h: int) -> int:
        """g h g^-1."""
        return int(self.mul[self.mul[g, h], self.inv[g]])

    def label(self, g: int) -> str:
        return self.labels[g] if self.labels else str(g)

    def element_order(self, g: int) -> int:
        n, x = 1, g
        while x != self.identity:
            x = int(self.mul[x, g])
            n += 1
        return n

    def exponent(self) -> int:
        if "exponent" not in self._cache:
            self._cache["exponent"] = lcm(*(self.element_order(g)
                                            for g in range(self.order)))
        return self._cache["exponent"]

    def __repr__(self) -> str:
        tag = self.name or "FiniteGroup"
        return f"<{tag} of order {self.order}>"


def _grow_closure(mul: np.ndarray, inside: np.ndarray, new) -> None:
    """Grow `inside`, a mask closed under products, to the closure of it and
    `new` under products, in place.

    Breadth first: each round multiplies the newest elements by all members
    on both sides, in blocks of rows, so every product of two members is
    formed at most twice.  In a finite group this closure is the generated
    subgroup.
    """
    frontier = np.asarray(new, dtype=np.int64)
    frontier = np.unique(frontier[~inside[frontier]])
    while len(frontier):
        inside[frontier] = True
        members = np.flatnonzero(inside)
        reached = np.zeros(len(inside), dtype=bool)
        step = max(1, _CLOSURE_BLOCK // len(members))
        for lo in range(0, len(frontier), step):
            rows = frontier[lo:lo + step]
            reached[mul[rows[:, None], members]] = True
            reached[mul[members[:, None], rows]] = True
        frontier = np.flatnonzero(reached & ~inside)


def _validate_table(mul: np.ndarray) -> tuple[int, np.ndarray]:
    """Check the group axioms on a table; return the identity and inverses.

    Rows and columns must be permutations, the identity and the inverses
    two-sided.  Associativity is certified by Light's test: the elements s
    with (x s) y = x (s y) for all x and y are closed under products, so it
    suffices to check s over a set S whose closure under products is the
    whole table.  S is built greedily, each s the least element outside the
    closure of the ones before it (which contains the identity); every
    closure is a subquasigroup, at most half of the next, so |S| <= log2 n + 1
    and the test costs O(n^2 log n).
    """
    n = len(mul)
    if mul.shape != (n, n):
        raise NotAGroup("multiplication table is not square")
    if mul.min() < 0 or mul.max() >= n:
        raise NotAGroup("table entry out of range")
    want = np.arange(n)
    step = max(1, _CLOSURE_BLOCK // n)
    for what, lines in (("row", mul), ("column", mul.T)):
        for lo in range(0, n, step):
            # hits[a, v]: value v occurs in line lo + a
            block = lines[lo:lo + step]
            hits = np.zeros(block.size, dtype=bool)
            hits[block + want[:len(block), None] * n] = True
            bad = ~hits.reshape(len(block), n).all(axis=1)
            if bad.any():
                raise NotAGroup(
                    f"{what} {lo + int(bad.argmax())} is not a permutation")
    # column 0 is a permutation, so only one element can be the identity
    e = int(np.argmax(mul[:, 0] == 0))
    if not (np.array_equal(mul[e], want) and np.array_equal(mul[:, e], want)):
        raise NotAGroup("no two-sided identity")
    inv = np.argmax(mul == e, axis=1)
    if not (np.array_equal(mul[want, inv], np.full(n, e))
            and np.array_equal(mul[inv, want], np.full(n, e))):
        raise NotAGroup("inverses are not two-sided")
    inside = np.zeros(n, dtype=bool)
    inside[e] = True
    while not inside.all():
        s = int(inside.argmin())
        for lo in range(0, n, step):
            # (x s) y against x (s y) for x in one block of rows
            left = mul[mul[lo:lo + step, s]]
            right = mul[lo:lo + step][:, mul[s]]
            bad = np.argwhere(left != right)
            if len(bad):
                x, y = (int(v) for v in bad[0])
                raise NotAGroup(
                    f"associativity fails at ({lo + x}, {s}, {y})")
        _grow_closure(mul, inside, [s])
    return e, inv


def build_from_table(table, labels=None, name: str | None = None) -> FiniteGroup:
    """Validate a raw multiplication table and wrap it as a group.

    Raises NotAGroup with a reason when any axiom fails, or when the table
    is not n lists of n integers in 0..n-1 (no floats, no bools); an integer
    numpy array is checked as a whole.  Raises TooLarge when n exceeds
    DEFAULT_MAX_ORDER.
    """
    n = len(table)
    if n > DEFAULT_MAX_ORDER:
        raise TooLarge(
            f"table order {n} exceeds the cap of {DEFAULT_MAX_ORDER}")
    if isinstance(table, np.ndarray):
        if table.dtype.kind not in "iu" or table.shape != (n, n) or not n:
            raise NotAGroup("table must be two-dimensional, n x n integers")
        if table.min() < 0 or table.max() >= n:
            raise NotAGroup(f"table entries must be integers in 0..{n - 1}")
    else:
        if not all(isinstance(row, (list, tuple, np.ndarray)) and len(row) == n
                   for row in table):
            raise NotAGroup("multiplication table is not square")
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                   and 0 <= v < n for row in table for v in row):
            raise NotAGroup(f"table entries must be integers in 0..{n - 1}")
    mul = np.array(table, dtype=np.int64)
    if mul.ndim != 2:
        raise NotAGroup("table must be two-dimensional")
    e, inv = _validate_table(mul)
    return FiniteGroup(mul, e, inv, tuple(labels) if labels else None, name)


def _cycle_label(p: tuple[int, ...]) -> str:
    seen = [False] * len(p)
    cycles = []
    for s in range(len(p)):
        if seen[s] or p[s] == s:
            seen[s] = True
            continue
        cyc = [s]
        seen[s] = True
        x = p[s]
        while x != s:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        cycles.append("(" + " ".join(str(v) for v in cyc) + ")")
    return "".join(cycles) if cycles else "e"


def _row_codes(rows: np.ndarray) -> list[bytes]:
    """One code per row of a 2-d array; equal rows, equal codes."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))
                     )[:, 0].tolist()


def build_from_permutations(degree: int, generators,
                            max_order: int = DEFAULT_MAX_ORDER,
                            name: str | None = None) -> FiniteGroup:
    """Close a generating set of permutations on `degree` points.

    Elements are discovered breadth-first (shortest word, then lexicographic
    word), so element 0 is always the identity and the numbering is canonical.
    Elements are rows of one integer array, each with an extra fixed point
    `degree` so that no row is empty.  Element i was found as p * g for an
    earlier element p and a generator g, so row i of the table is row p
    gathered at the positions of g * j: one gather per row.
    """
    gens = []
    for g in generators:
        t = tuple(int(v) for v in g)
        if sorted(t) != list(range(degree)):
            raise NotAGroup(f"generator {g} is not a permutation of {degree} points")
        gens.append(t + (degree,))
    dtype = np.min_scalar_type(degree)
    gen_rows = np.array(gens, dtype=dtype).reshape(len(gens), degree + 1)
    frontier = np.arange(degree + 1, dtype=dtype)[None]
    index = {_row_codes(frontier)[0]: 0}
    blocks = [frontier]
    # element i = element born[i] // len(gens) times gens[born[i] % len(gens)]
    born, seen = [0], 0
    while len(frontier):
        # (p * g)(x) = p(g(x)) for p in the frontier, then g, in order
        cands = frontier[:, gen_rows].reshape(-1, degree + 1)
        fresh = []
        for pos, code in enumerate(_row_codes(cands)):
            if code not in index:
                if len(index) >= max_order:
                    raise TooLarge(
                        f"closure exceeded the cap of {max_order} elements")
                index[code] = len(index)
                fresh.append(pos)
                born.append(seen + pos)
        seen += len(cands)
        frontier = cands[fresh]
        blocks.append(frontier)
    elems = np.concatenate(blocks)
    n = len(elems)
    # left[k, j] = gens[k] * j
    left = np.array([index[code] for code in
                     _row_codes(gen_rows[:, elems].reshape(-1, degree + 1))],
                    dtype=np.int64).reshape(len(gens), n)
    mul = np.empty((n, n), dtype=np.int64)
    mul[0] = np.arange(n)
    for i in range(1, n):
        p, k = divmod(born[i], len(gens))
        mul[i] = mul[p, left[k]]
    e, inv = _validate_table(mul)
    labels = tuple(_cycle_label(p) for p in elems[:, :degree].tolist())
    return FiniteGroup(mul, e, inv, labels, name)


def direct_product(a: FiniteGroup, b: FiniteGroup,
                   max_order: int = DEFAULT_MAX_ORDER,
                   name: str | None = None) -> FiniteGroup:
    """Direct product with elements encoded as i*|B| + j."""
    n = a.order * b.order
    if n > max_order:
        raise TooLarge(f"product order {n} exceeds the cap of {max_order}")
    nb = b.order
    mul = (a.mul[:, None, :, None] * nb + b.mul[None, :, None, :]).reshape(n, n)
    e, inv = _validate_table(mul)
    labels = None
    if a.labels and b.labels:
        labels = tuple(f"({a.labels[i]},{b.labels[j]})"
                       for i in range(a.order) for j in range(b.order))
    if name is None and a.name and b.name:
        name = f"{a.name}x{b.name}"
    return FiniteGroup(mul, e, inv, labels, name)


def product_chain(groups, max_order: int = DEFAULT_MAX_ORDER,
                  name: str | None = None):
    """Left-associated direct product plus the chain of prefix subgroups.

    Returns (product, [S_0, ..., S_k]) where S_i is the subgroup of elements
    whose coordinates beyond the first i factors are the identity; S_0 is
    trivial and S_k is the whole product.
    """
    groups = list(groups)
    if not groups:
        raise ValueError("need at least one factor")
    prod = groups[0]
    for i, g in enumerate(groups[1:]):
        last = i == len(groups) - 2
        prod = direct_product(prod, g, max_order=max_order,
                              name=name if (name and last) else None)
    orders = [g.order for g in groups]
    idents = [g.identity for g in groups]

    def encode(coords):
        out = 0
        for c, g in zip(coords, groups):
            out = out * g.order + c
        return out

    chain = []
    for k in range(len(groups) + 1):
        ranges = [range(orders[i]) if i < k else [idents[i]]
                  for i in range(len(groups))]
        stack = [[]]
        for r in ranges:
            stack = [s + [v] for s in stack for v in r]
        members = sorted(encode(s) for s in stack)
        chain.append(subgroup(prod, members))
    return prod, chain


class ConjugacyPartition:
    """Conjugacy classes in canonical order.

    The identity class comes first; the rest sort by size ascending, then by
    least element.  ``class_of`` maps an element to its class index.
    """

    def __init__(self, classes: tuple[tuple[int, ...], ...],
                 class_of: np.ndarray) -> None:
        self.classes = classes
        self.class_of = class_of
        class_of.setflags(write=False)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    @property
    def representatives(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.classes)

    def __len__(self) -> int:
        return len(self.classes)


def conjugacy_classes(g: FiniteGroup) -> ConjugacyPartition:
    if "classes" in g._cache:
        return g._cache["classes"]
    n = g.order
    assigned = np.full(n, -1, dtype=np.int64)
    raw: list[tuple[int, ...]] = []
    all_idx = np.arange(n)
    for x in range(n):
        if assigned[x] >= 0:
            continue
        col = g.mul[:, x]
        orbit = np.unique(g.mul[col, g.inv[all_idx]])
        assigned[orbit] = len(raw)
        raw.append(tuple(int(v) for v in orbit))
    order = sorted(range(len(raw)),
                   key=lambda i: (g.identity not in raw[i], len(raw[i]), raw[i][0]))
    classes = tuple(raw[i] for i in order)
    class_of = np.empty(n, dtype=np.int64)
    for ci, cls in enumerate(classes):
        for v in cls:
            class_of[v] = ci
    part = ConjugacyPartition(classes, class_of)
    g._cache["classes"] = part
    return part


def is_abelian(g: FiniteGroup) -> bool:
    return bool(np.array_equal(g.mul, g.mul.T))


class Subgroup:
    """A subgroup held as an explicit sorted element set of its parent."""

    def __init__(self, parent: FiniteGroup, elements: tuple[int, ...]) -> None:
        self.parent = parent
        self.elements = elements
        self._cache: dict = {}

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return self.parent.order // len(self.elements)

    def contains(self, g: int) -> bool:
        return bool(self.member_index()[g] >= 0)

    def embedding(self) -> np.ndarray:
        if "embed" not in self._cache:
            emb = np.array(self.elements, dtype=np.int64)
            emb.setflags(write=False)
            self._cache["embed"] = emb
        return self._cache["embed"]

    def member_index(self) -> np.ndarray:
        if "member" not in self._cache:
            m = np.full(self.parent.order, -1, dtype=np.int64)
            m[self.embedding()] = np.arange(len(self.elements))
            m.setflags(write=False)
            self._cache["member"] = m
        return self._cache["member"]

    def as_group(self) -> FiniteGroup:
        """The subgroup as a standalone group; index i is self.elements[i]."""
        if "group" not in self._cache:
            emb = self.embedding()
            member = self.member_index()
            mul = member[self.parent.mul[np.ix_(emb, emb)]].astype(np.int64)
            if mul.min() < 0:
                raise NotAGroup("element set is not closed under multiplication")
            e, inv = _validate_table(mul)
            labels = (tuple(self.parent.label(g) for g in self.elements)
                      if self.parent.labels else None)
            suffix = f"<{len(self.elements)}>"
            name = f"{self.parent.name}{suffix}" if self.parent.name else None
            self._cache["group"] = FiniteGroup(mul, e, inv, labels, name)
        return self._cache["group"]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and other.parent is self.parent
                and other.elements == self.elements)

    def __hash__(self) -> int:
        return hash((id(self.parent), self.elements))

    def __repr__(self) -> str:
        return f"<Subgroup of order {self.order} in {self.parent!r}>"


def subgroup(g: FiniteGroup, elements) -> Subgroup:
    """Validate an element set as a subgroup (closure, identity, inverses)."""
    elems = tuple(sorted({int(v) for v in elements}))
    if not elems:
        raise NotAGroup("a subgroup cannot be empty")
    if any(v < 0 or v >= g.order for v in elems):
        raise NotAGroup("subgroup element out of range")
    inside = np.zeros(g.order, dtype=bool)
    arr = np.array(elems, dtype=np.int64)
    inside[arr] = True
    if not inside[g.identity]:
        raise NotAGroup("subgroup does not contain the identity")
    # closure in blocks of rows: the first failing a in sorted order, its
    # inverse checked before its products, then the first failing b
    step = max(1, _CLOSURE_BLOCK // len(arr))
    for lo in range(0, len(arr), step):
        rows = arr[lo:lo + step]
        inv_ok = inside[g.inv[rows]]
        mul_ok = inside[g.mul[np.ix_(rows, arr)]]
        bad = ~inv_ok | ~mul_ok.all(axis=1)
        if bad.any():
            i = int(bad.argmax())
            a = int(rows[i])
            if not inv_ok[i]:
                raise NotAGroup(f"subgroup not closed under inversion at {a}")
            b = int(arr[mul_ok[i].argmin()])
            raise NotAGroup(f"subgroup not closed under product at ({a}, {b})")
    return Subgroup(g, elems)


def generated_subgroup(g: FiniteGroup, gens) -> Subgroup:
    gens = {int(v) for v in gens}
    if any(v < 0 or v >= g.order for v in gens):
        raise NotAGroup("subgroup generator out of range")
    inside = np.zeros(g.order, dtype=bool)
    inside[g.identity] = True
    _grow_closure(g.mul, inside, sorted(gens))
    return Subgroup(g, tuple(np.flatnonzero(inside).tolist()))


def trivial_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, (g.identity,))


def full_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, tuple(range(g.order)))


def is_normal(g: FiniteGroup, s: Subgroup) -> bool:
    if s.parent is not g:
        raise NotNormal("subgroup belongs to a different group")
    if "normal" not in s._cache:
        emb, member = s.embedding(), s.member_index()
        step = max(1, _CLOSURE_BLOCK // len(emb))
        # x h x^-1 for every h in H and x in one block of G, in one gather
        s._cache["normal"] = all(
            np.all(member[g.mul[g.mul[lo:lo + step][:, emb],
                                g.inv[lo:lo + step, None]]] >= 0)
            for lo in range(0, g.order, step))
    return s._cache["normal"]


def _kernel_masks(g: FiniteGroup, linear_only: bool = False) -> list[int]:
    """The kernel of each irreducible character (of each linear one, with
    `linear_only`) as a bit mask of classes: the classes where the row's
    numerators equal its numerators at the identity."""
    from .characters import character_table
    c0 = int(conjugacy_classes(g).class_of[g.identity])
    return [sum(1 << c for c in
                np.flatnonzero((chi.nums == chi.nums[c0]).all(axis=1)).tolist())
            for chi in character_table(g)
            if not linear_only or chi.degree == 1]


def _union_of_classes(g: FiniteGroup, mask: int) -> tuple[int, ...]:
    """The elements of the classes in a bit mask, sorted."""
    part = conjugacy_classes(g)
    on = np.array([mask >> c & 1 for c in range(len(part))], dtype=bool)
    return tuple(np.flatnonzero(on[part.class_of]).tolist())


def derived_subgroup(g: FiniteGroup) -> Subgroup:
    """The commutator subgroup: the intersection of the kernels of the linear
    characters, checked as a subgroup.

    Needs the character table, so it raises TooLarge for a group with more
    than `characters.MAX_TABLE_CLASSES` (256) conjugacy classes.
    """
    mask = (1 << len(conjugacy_classes(g))) - 1
    for ker in _kernel_masks(g, linear_only=True):
        mask &= ker
    return subgroup(g, _union_of_classes(g, mask))


def normal_subgroups(g: FiniteGroup) -> tuple[Subgroup, ...]:
    """All normal subgroups, sorted by order, then elements.

    Every normal subgroup is an intersection of kernels of irreducible
    characters, so the kernels of the table rows, closed under intersection,
    give them all as unions of classes; each is checked by `subgroup` and
    `is_normal`.  The table is computed once per multiplication table, so
    this raises TooLarge for a group with more than
    `characters.MAX_TABLE_CLASSES` (256) conjugacy classes.  Each call
    returns fresh subgroups that share the memoized caches, so `as_group()`,
    induction counts and conjugation data are computed once.
    """
    if g._normal_subgroups is None:
        found = {(1 << len(conjugacy_classes(g))) - 1}
        for ker in _kernel_masks(g):
            found |= {mask & ker for mask in found}
        subs = sorted((subgroup(g, _union_of_classes(g, mask))
                       for mask in found), key=lambda s: (s.order, s.elements))
        for s in subs:
            if not is_normal(g, s):
                raise InternalContradiction(
                    "an intersection of kernels is not normal")
        g._normal_subgroups = tuple((s.elements, s._cache) for s in subs)
    subs = []
    for elements, cache in g._normal_subgroups:
        s = Subgroup(g, elements)
        s._cache = cache
        subs.append(s)
    return tuple(subs)


def prime_index_normal_subgroups(g: FiniteGroup) -> tuple[Subgroup, ...]:
    return tuple(s for s in normal_subgroups(g) if is_prime(s.index))


class QuotientMap:
    """The projection G -> G/N; callable on element indices."""

    def __init__(self, source: FiniteGroup, group: FiniteGroup,
                 mapping: np.ndarray) -> None:
        self.source = source
        self.group = group
        self.mapping = mapping
        mapping.setflags(write=False)

    def __call__(self, g: int) -> int:
        return int(self.mapping[g])


def quotient(g: FiniteGroup, n: Subgroup) -> tuple[FiniteGroup, QuotientMap]:
    """Quotient by a normal subgroup, with cosets named by least representative.

    The projection is verified to be a homomorphism on all pairs.
    """
    if not is_normal(g, n):
        raise NotNormal("cannot form a quotient by a non-normal subgroup")
    emb = n.embedding()
    proj = np.full(g.order, -1, dtype=np.int64)
    reps = []
    for x in range(g.order):
        if proj[x] >= 0:
            continue
        coset = np.unique(g.mul[x, emb])
        proj[coset] = len(reps)
        reps.append(int(coset.min()))
    rep_arr = np.array(reps, dtype=np.int64)
    qmul = proj[g.mul[np.ix_(rep_arr, rep_arr)]].astype(np.int64)
    e, inv = _validate_table(qmul)
    labels = (tuple(f"[{g.label(r)}]" for r in reps) if g.labels else None)
    name = f"{g.name}/N{n.order}" if g.name else None
    q = FiniteGroup(qmul, e, inv, labels, name)
    if not np.array_equal(proj[g.mul], qmul[proj][:, proj]):
        raise NotAGroup("projection failed the homomorphism check")
    return q, QuotientMap(g, q, proj)


# ---------------------------------------------------------------------------
# group file format: `perm <degree>` with `gen ...` lines, or `table <n>`
# followed by n*n whitespace-separated entries.  `#` starts a comment.

def parse_group_text(text: str, name: str | None = None) -> FiniteGroup:
    return _parse_group_lines(io.StringIO(text), name)


def _parse_group_lines(raw_lines, name: str | None) -> FiniteGroup:
    """A group from the lines of a group file, read lazily: a `table <n>`
    header over the order cap is refused before any entry is read, and the
    entries go line by line into one integer array."""
    lines = (body for body in (raw.split("#", 1)[0].strip() for raw in raw_lines)
             if body)
    first = next(lines, None)
    if first is None:
        raise InvalidData("empty group file")
    head = first.split()
    if head[0] == "perm":
        if len(head) != 2 or not head[1].isdigit():
            raise InvalidData(f"bad header {first!r}; expected 'perm <degree>'")
        degree = int(head[1])
        gens = []
        for ln in lines:
            parts = ln.split()
            if parts[0] != "gen":
                raise InvalidData(f"expected 'gen ...' line, got {ln!r}")
            try:
                imgs = [int(v) for v in parts[1:]]
            except ValueError as exc:
                raise InvalidData(f"non-integer image in {ln!r}") from exc
            if len(imgs) != degree:
                raise InvalidData(
                    f"generator needs {degree} images, got {len(imgs)}")
            gens.append(imgs)
        if not gens:
            raise InvalidData("no generators given")
        return build_from_permutations(degree, gens, name=name)
    if head[0] == "table":
        if len(head) != 2 or not head[1].isdigit():
            raise InvalidData(f"bad header {first!r}; expected 'table <n>'")
        n = int(head[1])
        if n > DEFAULT_MAX_ORDER:
            raise TooLarge(
                f"table order {n} exceeds the cap of {DEFAULT_MAX_ORDER}")
        vals = np.zeros(n * n, dtype=np.int64)
        count = 0
        for ln in lines:
            try:
                row = [int(v) for v in ln.split()]
            except ValueError as exc:
                raise InvalidData("non-integer table entry") from exc
            if count + len(row) <= n * n:
                try:
                    vals[count:count + len(row)] = row
                except OverflowError as exc:
                    raise NotAGroup(
                        f"table entries must be integers in 0..{n - 1}") from exc
            count += len(row)
        if count != n * n:
            raise InvalidData(f"table needs {n * n} entries, got {count}")
        return build_from_table(vals.reshape(n, n), name=name)
    raise InvalidData(f"unknown header {first!r}; expected 'perm' or 'table'")


def load_group_file(path) -> FiniteGroup:
    p = Path(path)
    try:
        with p.open(encoding="utf-8") as fh:
            return _parse_group_lines(fh, p.stem)
    except OSError as exc:
        raise InvalidData(f"cannot read group file {p}: {exc}") from exc
