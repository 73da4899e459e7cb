"""Finite groups as explicit multiplication tables on elements 0..order-1.

Groups are validated at construction (row/column permutations, two-sided
identity and inverses, exhaustive associativity), so everything downstream can
trust the axioms.  Tables, conjugacy data and subgroup machinery use numpy for
the integer combinatorics; all objects are immutable after construction.
"""

from __future__ import annotations

import weakref
from math import lcm
from pathlib import Path

import numpy as np

from .arith import is_prime
from .errors import InvalidData, NotAGroup, NotNormal, TooLarge

DEFAULT_MAX_ORDER = 20000


class _TableCache(dict):
    """Data derived from one multiplication table; weakly referenceable."""


_TABLE_CACHES = weakref.WeakValueDictionary()  # int64 table bytes -> cache


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
        self._cache = _TABLE_CACHES.setdefault(
            mul.astype(np.int64, copy=False).tobytes(), _TableCache())
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


def _validate_table(mul: np.ndarray) -> tuple[int, np.ndarray]:
    n = len(mul)
    if mul.shape != (n, n):
        raise NotAGroup("multiplication table is not square")
    if mul.min() < 0 or mul.max() >= n:
        raise NotAGroup("table entry out of range")
    want = np.arange(n)
    for a in range(n):
        if not np.array_equal(np.sort(mul[a]), want):
            raise NotAGroup(f"row {a} is not a permutation")
        if not np.array_equal(np.sort(mul[:, a]), want):
            raise NotAGroup(f"column {a} is not a permutation")
    ids = [e for e in range(n)
           if np.array_equal(mul[e], want) and np.array_equal(mul[:, e], want)]
    if not ids:
        raise NotAGroup("no two-sided identity")
    e = ids[0]
    inv = np.argmax(mul == e, axis=1)
    if not (np.array_equal(mul[want, inv], np.full(n, e))
            and np.array_equal(mul[inv, want], np.full(n, e))):
        raise NotAGroup("inverses are not two-sided")
    for a in range(n):
        if not np.array_equal(mul[mul[a]], mul[a][mul]):
            bad = np.argwhere(mul[mul[a]] != mul[a][mul])[0]
            raise NotAGroup(
                f"associativity fails at ({a}, {int(bad[0])}, {int(bad[1])})")
    return e, inv


def build_from_table(table, labels=None, name: str | None = None) -> FiniteGroup:
    """Validate a raw multiplication table and wrap it as a group.

    Raises NotAGroup with a reason when any axiom fails.
    """
    mul = np.array(table, dtype=np.int64)
    if mul.ndim != 2:
        raise NotAGroup("table must be two-dimensional")
    e, inv = _validate_table(mul)
    return FiniteGroup(mul, e, inv, tuple(labels) if labels else None, name)


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p*q)(x) = p(q(x)): apply q first
    return tuple(p[i] for i in q)


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


def build_from_permutations(degree: int, generators,
                            max_order: int = DEFAULT_MAX_ORDER,
                            name: str | None = None) -> FiniteGroup:
    """Close a generating set of permutations on `degree` points.

    Elements are discovered breadth-first (shortest word, then lexicographic
    word), so element 0 is always the identity and the numbering is canonical.
    """
    gens = []
    ident = tuple(range(degree))
    for g in generators:
        t = tuple(int(v) for v in g)
        if sorted(t) != list(range(degree)):
            raise NotAGroup(f"generator {g} is not a permutation of {degree} points")
        gens.append(t)
    elems: list[tuple[int, ...]] = [ident]
    index = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = _compose(p, g)
                if q not in index:
                    if len(elems) >= max_order:
                        raise TooLarge(
                            f"closure exceeded the cap of {max_order} elements")
                    index[q] = len(elems)
                    elems.append(q)
                    nxt.append(q)
        frontier = nxt
    n = len(elems)
    mul = np.empty((n, n), dtype=np.int64)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            mul[i, j] = index[_compose(p, q)]
    e, inv = _validate_table(mul)
    labels = tuple(_cycle_label(p) for p in elems)
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
    eset = set(elems)
    if g.identity not in eset:
        raise NotAGroup("subgroup does not contain the identity")
    for a in elems:
        if int(g.inv[a]) not in eset:
            raise NotAGroup(f"subgroup not closed under inversion at {a}")
        for b in elems:
            if int(g.mul[a, b]) not in eset:
                raise NotAGroup(f"subgroup not closed under product at ({a}, {b})")
    return Subgroup(g, elems)


def generated_subgroup(g: FiniteGroup, gens) -> Subgroup:
    seed = {g.identity} | {int(v) for v in gens}
    members = set(seed)
    frontier = list(seed)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(members):
                for c in (int(g.mul[a, b]), int(g.mul[b, a])):
                    if c not in members:
                        members.add(c)
                        nxt.append(c)
            ia = int(g.inv[a])
            if ia not in members:
                members.add(ia)
                nxt.append(ia)
        frontier = nxt
    return Subgroup(g, tuple(sorted(members)))


def trivial_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, (g.identity,))


def full_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, tuple(range(g.order)))


def is_normal(g: FiniteGroup, s: Subgroup) -> bool:
    if s.parent is not g:
        raise NotNormal("subgroup belongs to a different group")
    member = s.member_index()
    emb = s.embedding()
    for x in range(g.order):
        conj = g.mul[g.mul[x, emb], g.inv[x]]
        if np.any(member[conj] < 0):
            return False
    return True


def derived_subgroup(g: FiniteGroup) -> Subgroup:
    comms = set()
    for a in range(g.order):
        ia = int(g.inv[a])
        for b in range(g.order):
            comms.add(int(g.mul[g.mul[a, b], g.mul[ia, g.inv[b]]]))
    return generated_subgroup(g, comms)


def normal_subgroups(g: FiniteGroup) -> tuple[Subgroup, ...]:
    """All normal subgroups, found as closures of unions of conjugacy classes.

    Each call returns fresh subgroups that share the memoized caches, so
    `as_group()`, induction counts and conjugation data are computed once.
    """
    if g._normal_subgroups is None:
        g._normal_subgroups = tuple((s.elements, s._cache)
                                    for s in _normal_subgroup_closure(g))
    subs = []
    for elements, cache in g._normal_subgroups:
        s = Subgroup(g, elements)
        s._cache = cache
        subs.append(s)
    return tuple(subs)


def _normal_subgroup_closure(g: FiniteGroup) -> list[Subgroup]:
    part = conjugacy_classes(g)
    found: dict[tuple[int, ...], Subgroup] = {}
    triv = trivial_subgroup(g)
    found[triv.elements] = triv
    agenda = [triv]
    while agenda:
        base = agenda.pop()
        for cls in part.classes:
            if cls[0] in set(base.elements):
                continue
            bigger = generated_subgroup(g, set(base.elements) | set(cls))
            if bigger.elements not in found:
                found[bigger.elements] = bigger
                agenda.append(bigger)
    return sorted(found.values(), key=lambda s: (s.order, s.elements))


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
    lines = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append(body)
    if not lines:
        raise InvalidData("empty group file")
    head = lines[0].split()
    if head[0] == "perm":
        if len(head) != 2 or not head[1].isdigit():
            raise InvalidData(f"bad header {lines[0]!r}; expected 'perm <degree>'")
        degree = int(head[1])
        gens = []
        for ln in lines[1:]:
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
            raise InvalidData(f"bad header {lines[0]!r}; expected 'table <n>'")
        n = int(head[1])
        toks = " ".join(lines[1:]).split()
        try:
            vals = [int(v) for v in toks]
        except ValueError as exc:
            raise InvalidData("non-integer table entry") from exc
        if len(vals) != n * n:
            raise InvalidData(f"table needs {n * n} entries, got {len(vals)}")
        rows = [vals[i * n:(i + 1) * n] for i in range(n)]
        return build_from_table(rows, name=name)
    raise InvalidData(f"unknown header {lines[0]!r}; expected 'perm' or 'table'")


def load_group_file(path) -> FiniteGroup:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidData(f"cannot read group file {p}: {exc}") from exc
    return parse_group_text(text, name=p.stem)
