"""Finite groups as explicit multiplication tables on elements 0..order-1.

Every table is validated once per content, so everything downstream can
trust the axioms: rows and columns are permutations, the identity and
inverses are two-sided, and associativity is certified by Light's test over a
greedy generating set S, in O(n^2 log n) rather than O(n^3).  A group whose
table is byte-equal to one already validated and still alive takes the
identity, the inverses and S from that table's cache.  Permutation groups are
closed breadth first on integer arrays.  Subgroups are closed from
generators one right coset at a time (Dimino's algorithm), for Light's set,
`generated_subgroup` and `subgroup`, and a set is checked as a subgroup by
right multiplication with a greedy generating set taken from it: O(|H| |T|)
products where all pairs take |H|^2.  Conjugacy classes and the cosets of a
quotient are the orbits of one generating set, each element labelled by
its orbit's least element in array passes (`_orbit_least`), and element
labels are formatted only when first read.  Normal subgroups are the
intersections of kernels of irreducible characters, read off the character
table and each checked as a normal subgroup; the derived subgroup is the
intersection of the kernels of the linear characters.  Tables, conjugacy data
and subgroup machinery use numpy for the integer combinatorics; all objects
are immutable after construction.  Everything derived from a table or a
subgroup is memoized by `cached`, in the table's or the subgroup's cache.
"""

from __future__ import annotations

import io
import weakref
import zlib
from functools import wraps
from math import lcm, prod
from pathlib import Path

import numpy as np

from .arith import is_prime
from .errors import (InternalContradiction, InvalidData, NotAGroup,
                     NotNormal, TooLarge)

# The order cap of builds and tables, from measured cost on a 2-vCPU Xeon
# (Python 3.11, numpy 2.4): the `table` command of S7 (order 5040, from a
# 3-line permutation file) takes 1.5 s and 302 MB VmHWM after import, 1.2 to
# 1.3 s of it to build and certify the group and 0.16 to 0.18 s for the
# table.  The int64 table is 8 n^2 bytes, so the next symmetric-group size,
# 10080, would need 813 MB before any other work.  A permutation closure
# also stores (degree + 1) entries per element: before each layer, the
# elements found and the layer's candidates together may hold at most
# _CLOSURE_ENTRIES = 2^22 entries.  S7 acting on 105 copies of 7 points (735
# points) builds in 2.6 s at 360 MB; a 60000-point cycle is refused after
# 0.15 s at 55 MB, where the order cap alone let it take 2.5 s and 1.2 GB.
MAX_ORDER = 5040
_CLOSURE_ENTRIES = 1 << 22

# at most this many products in one block of the table checks (rows,
# columns and Light's test), so that memory stays flat
_CLOSURE_BLOCK = 1 << 20


def unique_sorted(a) -> np.ndarray:
    """np.unique(a) from one sort and one mask: numpy 2's np.unique imports
    numpy.ma on first use, which every one-shot request would pay for."""
    a = np.sort(a, axis=None)
    keep = np.ones(a.shape, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def row_keys(rows: np.ndarray) -> list:
    """One hashable key per row (entry of the first axis) of an integer array
    of any shape; equal rows, equal keys.  A void view of each row for fixed
    width dtypes, a tuple for Python ints (dtype object)."""
    if rows.dtype == object:
        return [tuple(r.ravel().tolist()) for r in rows]
    rows = np.ascontiguousarray(rows).reshape(len(rows), prod(rows.shape[1:]))
    return rows.view(np.dtype(f"V{rows.shape[1] * rows.itemsize}"))[:, 0].tolist()


class _TableCache(dict):
    """Data derived from one multiplication table, which `_validate_table`
    checks when the cache is made: its identity, inverses and generating set
    S, and the memos of `cached`; weakly referenceable."""

    def __init__(self, mul: np.ndarray) -> None:
        super().__init__()
        self.mul = mul
        self.identity, self.inv, self.generators = _validate_table(mul)
        self.inv.setflags(write=False)


# (order, CRC-32, Adler-32 of the table) -> cache; a cache is shared only
# with an equal table, so a checksum collision costs sharing and one more
# validation, not correctness
_TABLE_CACHES = weakref.WeakValueDictionary()


def cached(f):
    """f(x) computed once per ``x._cache``, the cache of a group's table or
    of a subgroup, and kept there under f's name; an ndarray result is made
    read-only.  ``f.peek(x)`` is the kept result, or None, computing nothing,
    and ``f.put(x, out)`` keeps out as f(x), for a caller that computes the
    results of several x at once.  Every memo of data derived from a table
    or a subgroup goes through here, so no other module names a cache key."""
    key = f.__name__

    def put(x, out):
        if isinstance(out, np.ndarray):
            out.setflags(write=False)
        x._cache[key] = out

    @wraps(f)
    def memo(x):
        if key not in x._cache:
            put(x, f(x))
        return x._cache[key]
    memo.peek, memo.put = (lambda x: x._cache.get(key)), put
    return memo


class FiniteGroup:
    """A finite group given by its multiplication table, validated once per
    content.

    Elements are the indices 0..order-1.  ``mul[a, b]`` is the product a*b,
    ``inv[a]`` the inverse of a, and ``generators`` is Light's greedy
    generating set S of `_validate_table`.  ``labels`` are optional display
    strings, one per element, given as a tuple or as a function that formats
    them when they are first read; such a function holds arrays and strings,
    never a group.  Instances compare and hash by identity.  Groups with
    byte-identical tables share ``_cache``, which holds the identity, the
    inverses and S of the one validation of that content, and where `cached`
    keeps the exponent, the classes and the character table's numerator
    array, so ``a._cache is b._cache`` tests equal tables.  Raises NotAGroup
    as `_validate_table` does.  Normal subgroups are memoized per object as
    element sets with their subgroup caches, never as subgroups pointing back
    at the group, so a group is freed as soon as it is unreachable.
    """

    def __init__(self, mul: np.ndarray, labels: tuple[str, ...] | None = None,
                 name: str | None = None) -> None:
        self.mul = mul
        self.order = int(len(mul))
        self._labels = labels
        self.name = name
        narrow = mul.astype(np.min_scalar_type(self.order), order="C")
        key = (self.order, zlib.crc32(narrow), zlib.adler32(narrow))
        cache = _TABLE_CACHES.get(key)
        if cache is None or not (cache.mul == mul).all():
            cache = _TableCache(mul)
            _TABLE_CACHES.setdefault(key, cache)
        self._cache = cache
        self.identity, self.inv, self.generators = (
            cache.identity, cache.inv, cache.generators)
        # (elements, subgroup cache) per normal subgroup, once computed
        self._normal_subgroups: tuple | None = None
        mul.setflags(write=False)

    @property
    def labels(self) -> tuple[str, ...] | None:
        if callable(self._labels):
            self._labels = self._labels()
        return self._labels

    def mul_elem(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def label(self, g: int) -> str:
        return self.labels[g] if self.labels else str(g)

    def element_order(self, g: int) -> int:
        n, x = 1, g
        while x != self.identity:
            x = int(self.mul[x, g])
            n += 1
        return n

    @cached
    def exponent(self) -> int:
        # element order is a class function
        return lcm(*(self.element_order(g)
                     for g in conjugacy_classes(self).representatives))

    def __repr__(self) -> str:
        tag = self.name or "FiniteGroup"
        return f"<{tag} of order {self.order}>"


def _greedy_closure(mul: np.ndarray, e: int, cands: np.ndarray,
                    check=None) -> tuple[np.ndarray, list]:
    """The mask of the subgroup generated by `cands`, a sorted integer array,
    and the greedy set T taken from it: each element of T is the least of
    `cands` outside the closure of the ones before it.  `check(s)` runs on
    each s of T before the closure is extended by it.

    The closure K = <T so far> grows to <T so far, s> one right coset K r
    at a time (Dimino's algorithm; Butler, Fundamental Algorithms for
    Permutation Groups, LNCS 559).  The powers of s outside K are the first
    representatives.  After that, each product r t of a new representative
    r and a generator t (s included) that lies outside the union so far adds
    its coset.  The work goes one breadth-first layer of representatives at
    a time, with one gather of |K| x |layer| products per layer, and a new
    coset is represented by its least element.  The union is then closed
    under right multiplication by every generator, so it is <T so far, s>;
    no gather holds more than |<T so far, s>| (|T so far| + 1) entries.  The
    cosets need only that the elements of the closure are middle-associative,
    which holds while `_validate_table` is still checking a table.
    """
    inside = np.zeros(len(mul), dtype=bool)
    inside[e] = True
    gens = []
    while len(outside := cands[~inside[cands]]):
        s = int(outside[0])
        if check:
            check(s)
        members = inside.nonzero()[0]
        reps, x = [], s
        while not inside[x]:
            reps.append(x)
            x = int(mul[x, s])
        gens.append(s)
        products = np.array(reps)
        while len(products := products[~inside[products]]):
            cosets = mul[members[:, None], products]
            inside[cosets] = True
            # the next layer: one representative per coset, its least element
            layer = np.zeros(len(mul), dtype=bool)
            layer[cosets.min(axis=0)] = True
            products = mul[layer.nonzero()[0][:, None], gens].ravel()
    return inside, gens


def _validate_table(mul: np.ndarray) -> tuple[int, np.ndarray, tuple]:
    """Check the group axioms on a table; return the identity, the inverses
    and Light's generating set S.

    Rows and columns must be permutations, the identity and the inverses
    two-sided.  Associativity is certified by Light's test: the elements s
    with (x s) y = x (s y) for all x and y are closed under products, so it
    suffices to check s over a set S whose closure under products is the
    whole table.  S is built greedily by `_greedy_closure`, each s the least
    element outside the closure of the ones before it (which contains the
    identity), and s passes the test before the closure is extended by it,
    so every element of every closure is middle-associative.  Every closure
    is a subquasigroup, at most half of the next, so |S| <= log2 n + 1 and
    the test costs O(n^2 log n).  `FiniteGroup` runs this once per table
    content.
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
    e = int((mul[:, 0] == 0).argmax())
    if not ((mul[e] == want).all() and (mul[:, e] == want).all()):
        raise NotAGroup("no two-sided identity")
    inv = (mul == e).argmax(axis=1)
    if not ((mul[want, inv] == e).all() and (mul[inv, want] == e).all()):
        raise NotAGroup("inverses are not two-sided")

    def light(s):
        for lo in range(0, n, step):
            # (x s) y against x (s y) for x in one block of rows; the
            # first failure in row-major order is named
            bad = mul[mul[lo:lo + step, s]] != mul[lo:lo + step][:, mul[s]]
            if bad.any():
                x, y = divmod(int(bad.argmax()), n)
                raise NotAGroup(
                    f"associativity fails at ({lo + x}, {s}, {y})")
    return e, inv, tuple(_greedy_closure(mul, e, want, light)[1])


def build_from_table(table, labels=None, name: str | None = None) -> FiniteGroup:
    """Validate a raw multiplication table and wrap it as a group.

    Raises NotAGroup with a reason when any axiom fails, or when the table
    is not n lists of n integers in 0..n-1 (no floats, no bools); an integer
    numpy array is checked as a whole.  Raises TooLarge when n exceeds
    MAX_ORDER.
    """
    n = len(table)
    if n > MAX_ORDER:
        raise TooLarge(f"table order {n} exceeds the cap of {MAX_ORDER}")
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
    return FiniteGroup(mul, tuple(labels) if labels else None, name)


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


def _cycle_labels(perms: np.ndarray):
    """The cycle strings of the rows of `perms`, each a permutation of the
    columns, formatted on first read."""
    return lambda: tuple(_cycle_label(p) for p in perms.tolist())


def _derived_labels(fmt, *sources):
    """Labels formatted on first read by fmt from the labels of the groups
    whose ``_labels`` are `sources`, holding the sources and never a group;
    None when a source is None."""
    if any(src is None for src in sources):
        return None
    return lambda: fmt(*(src() if callable(src) else src for src in sources))


def build_from_permutations(degree: int, generators,
                            name: str | None = None) -> FiniteGroup:
    """Close a generating set of permutations on `degree` points, of at
    most MAX_ORDER elements and _CLOSURE_ENTRIES stored entries.

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
    index = {row_keys(frontier)[0]: 0}
    blocks = [frontier]
    # element i = element born[i] // len(gens) times gens[born[i] % len(gens)]
    born, seen = [0], 0
    while len(frontier):
        # (p * g)(x) = p(g(x)) for p in the frontier, then g, in order
        rows = len(index) + len(frontier) * len(gens)
        if rows * (degree + 1) > _CLOSURE_ENTRIES:
            raise TooLarge(f"closure on {degree} points exceeded the cap of "
                           f"{_CLOSURE_ENTRIES} stored entries")
        cands = frontier[:, gen_rows].reshape(-1, degree + 1)
        fresh = []
        for pos, code in enumerate(row_keys(cands)):
            if code not in index:
                if len(index) >= MAX_ORDER:
                    raise TooLarge(
                        f"closure exceeded the cap of {MAX_ORDER} elements")
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
                     row_keys(gen_rows[:, elems].reshape(-1, degree + 1))],
                    dtype=np.int64).reshape(len(gens), n)
    mul = np.empty((n, n), dtype=np.int64)
    mul[0] = np.arange(n)
    for i in range(1, n):
        p, k = divmod(born[i], len(gens))
        mul[i] = mul[p, left[k]]
    return FiniteGroup(mul, _cycle_labels(elems[:, :degree]), name)


def direct_product(a: FiniteGroup, b: FiniteGroup,
                   name: str | None = None) -> FiniteGroup:
    """Direct product with elements encoded as i*|B| + j."""
    n = a.order * b.order
    if n > MAX_ORDER:
        raise TooLarge(f"product order {n} exceeds the cap of {MAX_ORDER}")
    nb = b.order
    mul = (a.mul[:, None, :, None] * nb + b.mul[None, :, None, :]).reshape(n, n)
    labels = _derived_labels(lambda la, lb: tuple(
        f"({x},{y})" for x in la for y in lb), a._labels, b._labels)
    if name is None and a.name and b.name:
        name = f"{a.name}x{b.name}"
    return FiniteGroup(mul, labels, name)


def product_chain(groups, name: str | None = None):
    """Left-associated direct product plus the chain of prefix subgroups.

    Returns (product, [S_0, ..., S_k]) where S_i is the subgroup of elements
    whose coordinates beyond the first i factors are the identity; S_0 is
    trivial and S_k is the whole product.  The product's element codes are
    the row-major indices of the coordinates, so each S_i is one
    `np.ravel_multi_index` grid.
    """
    groups = list(groups)
    if not groups:
        raise ValueError("need at least one factor")
    prod = groups[0]
    for i, g in enumerate(groups[1:]):
        last = i == len(groups) - 2
        prod = direct_product(prod, g, name=name if last else None)
    orders = [g.order for g in groups]
    chain = []
    for k in range(len(groups) + 1):
        coords = [np.arange(g.order) if i < k else [g.identity]
                  for i, g in enumerate(groups)]
        members = np.ravel_multi_index(np.ix_(*coords), orders).ravel()
        chain.append(subgroup(prod, members))
    return prod, chain


class ConjugacyPartition:
    """Conjugacy classes in canonical order.

    The identity class comes first; the rest sort by size ascending, then by
    least element.  ``class_of`` maps an element to its class index, and
    ``sizes`` and ``representatives`` hold each class's size and least
    element.
    """

    def __init__(self, classes: tuple[tuple[int, ...], ...],
                 class_of: np.ndarray) -> None:
        self.classes = classes
        self.class_of = class_of
        class_of.setflags(write=False)
        self.sizes = tuple(len(c) for c in classes)
        self.representatives = tuple(c[0] for c in classes)

    def __len__(self) -> int:
        return len(self.classes)


def _orbit_least(perms: np.ndarray) -> np.ndarray:
    """For each point, the least point of its orbit under the group that the
    rows of `perms`, permutations of the points, generate.

    Min-label propagation with pointer jumping: each point starts labelled
    by itself; each round it takes the least of its label and its images'
    labels, and then that label's own label, until a round changes nothing.
    Each label stays in its point's orbit and only decreases, so the rounds
    end.  At the fixpoint no label exceeds the labels of its point's images,
    so labels are constant along each generator's cycles, hence on each
    orbit; the orbit's least point keeps its own label, so the constant is
    the orbit's minimum.  Each round is a few array passes over |perms|
    entries.
    """
    least = np.arange(perms.shape[1])
    while True:
        step = np.minimum(least, least[perms].min(axis=0, initial=len(least)))
        step = step[step]
        if (step == least).all():
            return least
        least = step


@cached
def conjugacy_classes(g: FiniteGroup) -> ConjugacyPartition:
    """The conjugacy classes of g in canonical order (`ConjugacyPartition`).

    The classes are the orbits of x -> s x s^-1 for s in Light's set S.  S
    generates G as a monoid, so these maps generate G's action by
    conjugation, and `_orbit_least` labels every element by the least
    element of its class in a few array passes over |S| x |G| entries, with
    no loop over the classes or the elements.
    """
    s = np.array(g.generators, dtype=np.int64)
    least = _orbit_least(g.mul[g.mul[s], g.inv[s, None]])
    reps = (least == np.arange(g.order)).nonzero()[0]
    sizes = np.bincount(least)[reps]
    # the identity's class first, then by size, then (the sort is stable)
    # by least element
    order = np.lexsort((sizes, reps != g.identity))
    rank = np.empty(g.order, dtype=np.int64)
    rank[reps[order]] = np.arange(len(reps))
    class_of = rank[least]
    members = class_of.argsort(kind="stable").tolist()
    ends = sizes[order].cumsum().tolist()
    return ConjugacyPartition(
        tuple(tuple(members[a:b]) for a, b in zip([0] + ends, ends)), class_of)


def is_abelian(g: FiniteGroup) -> bool:
    return bool((g.mul == g.mul.T).all())


class Subgroup:
    """A subgroup held as an explicit sorted element set of its parent.

    ``_cache`` is the subgroup's own, for `cached`: the embedding, the
    membership index, a generating set, the standalone group, normality,
    and the induction, restriction, conjugation and normal-pair data of
    `characters` and `clifford`.  It is keyed per subgroup, not by content:
    groups with equal tables can carry different names and labels, which
    ``as_group()`` copies.
    """

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

    @cached
    def embedding(self) -> np.ndarray:
        return np.array(self.elements, dtype=np.int64)

    @cached
    def member_index(self) -> np.ndarray:
        m = np.full(self.parent.order, -1, dtype=np.int64)
        m[self.embedding()] = np.arange(len(self.elements))
        return m

    @cached
    def as_group(self) -> FiniteGroup:
        """The subgroup as a standalone group; index i is self.elements[i]."""
        emb = self.embedding()
        mul = self.member_index()[self.parent.mul[emb[:, None], emb]]
        if mul.min() < 0:
            raise NotAGroup("element set is not closed under multiplication")
        # a local, so that the labels' function holds no subgroup
        elements = self.elements
        labels = _derived_labels(lambda parent: tuple(
            parent[g] for g in elements), self.parent._labels)
        name = (f"{self.parent.name}<{len(self.elements)}>"
                if self.parent.name else None)
        return FiniteGroup(mul, labels, name)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and other.parent is self.parent
                and other.elements == self.elements)

    def __hash__(self) -> int:
        return hash((id(self.parent), self.elements))

    def __repr__(self) -> str:
        return f"<Subgroup of order {self.order} in {self.parent!r}>"


def _elements(g: FiniteGroup, values, what: str) -> np.ndarray:
    """The distinct elements of G that `values`, a flat collection of
    integers, names, sorted in one int64 array: floats and bools are refused,
    as `build_from_table` refuses them, and so is "<what> out of range"."""
    if not isinstance(values, np.ndarray):
        values = list(values)
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                   for v in values):
            raise NotAGroup(f"{what}s must be integers")
        values = np.array(values, dtype=object)
    elif values.size and values.dtype.kind not in "iu":
        raise NotAGroup(f"{what}s must be integers")
    if values.ndim != 1:
        raise TypeError(f"{what}s must be a flat collection of integers")
    arr = unique_sorted(values)
    if len(arr) and (arr[0] < 0 or arr[-1] >= g.order):
        raise NotAGroup(f"{what} out of range")
    return arr.astype(np.int64, copy=False)


def subgroup(g: FiniteGroup, elements) -> Subgroup:
    """Validate an element set as a subgroup.

    After the range and identity checks, let T be the greedy set taken from
    the elements in sorted order, as `_greedy_closure` takes it.  T lies in
    the set and <T> contains it, so the set is a subgroup exactly when it is
    closed under right multiplication by T: one |H| x |T| gather.  A finite
    set closed under products is a subgroup, so inverses need no check.  A
    failure names the first member a in sorted order, and the first t of T,
    with a t outside the set.
    """
    arr = _elements(g, elements, "subgroup element")
    if not len(arr):
        raise NotAGroup("a subgroup cannot be empty")
    inside = np.zeros(g.order, dtype=bool)
    inside[arr] = True
    if not inside[g.identity]:
        raise NotAGroup("subgroup does not contain the identity")
    sub = Subgroup(g, tuple(arr.tolist()))
    gens = _subgroup_generators(sub)
    closed = inside[g.mul[arr[:, None], gens]]
    if not closed.all():
        i = int(closed.all(axis=1).argmin())
        raise NotAGroup(f"subgroup not closed under product at "
                        f"({arr[i]}, {gens[closed[i].argmin()]})")
    return sub


@cached
def _subgroup_generators(s: Subgroup) -> np.ndarray:
    """A generating set T of the subgroup: the greedy set `_greedy_closure`
    takes from its elements in sorted order, which `subgroup` checks a set
    with, so a checked subgroup carries it."""
    g = s.parent
    return np.array(_greedy_closure(g.mul, g.identity, s.embedding())[1],
                    dtype=np.int64)


def generated_subgroup(g: FiniteGroup, gens) -> Subgroup:
    """The subgroup generated by `gens`, closed by `_greedy_closure`."""
    inside = _greedy_closure(g.mul, g.identity,
                             _elements(g, gens, "subgroup generator"))[0]
    return Subgroup(g, tuple(inside.nonzero()[0].tolist()))


def trivial_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, (g.identity,))


def full_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, tuple(range(g.order)))


def is_normal(g: FiniteGroup, s: Subgroup) -> bool:
    if s.parent is not g:
        raise NotNormal("subgroup belongs to a different group")
    return _closed_under_conjugation(s)


@cached
def _closed_under_conjugation(s: Subgroup) -> bool:
    """s H s^-1 within H for every s in Light's set S, in one gather: S
    generates G as a monoid, so H is then closed under conjugation by all
    of G."""
    g, gens = s.parent, np.array(s.parent.generators, dtype=np.int64)
    conj = g.mul[g.mul[gens[:, None], s.embedding()], g.inv[gens, None]]
    return bool((s.member_index()[conj] >= 0).all())


def _kernel_masks(g: FiniteGroup, linear_only: bool = False) -> list[int]:
    """The kernel of each irreducible character (of each linear one, with
    `linear_only`) as a bit mask of classes: the classes where the row's
    numerators equal its numerators at the identity, class 0, read off the
    table's array."""
    from .characters import _table_nums
    nums = _table_nums(g)
    kernels = (nums == nums[:, :1]).all(axis=2)
    if linear_only:
        kernels = kernels[nums[:, 0, 0] == 1]
    return [sum(1 << c for c in ker.nonzero()[0].tolist())
            for ker in kernels]


def _union_of_classes(g: FiniteGroup, mask: int) -> np.ndarray:
    """The elements of the classes in a bit mask, sorted."""
    part = conjugacy_classes(g)
    on = np.array([mask >> c & 1 for c in range(len(part))], dtype=bool)
    return on[part.class_of].nonzero()[0]


def derived_subgroup(g: FiniteGroup) -> Subgroup:
    """The commutator subgroup: the intersection of the kernels of the linear
    characters, checked as a subgroup.

    Needs the character table, so it raises TooLarge where the table's caps
    do: more than `characters.MAX_TABLE_CLASSES` (256) conjugacy classes, or
    k^3 phi(exp G) over `characters.MAX_TABLE_WORK`.
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
    this raises TooLarge where the table's caps do (see `derived_subgroup`).
    Each call returns fresh subgroups that share the memoized caches, so
    `as_group()`, induction counts and conjugation data are computed once.
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

    The cosets x N are the orbits of x -> x t for t in the generating set T
    of N that `subgroup` checks it with (`_subgroup_generators`), so
    `_orbit_least` names every element's coset by its least element in a few
    array passes over |T| x |G| entries; cosets are numbered in the order of
    their least elements.  The projection is verified on Light's set S,
    proj(x s) = proj(x) proj(s) for every x and each s in S, and the
    quotient table passes the group axioms; S generates G as a monoid, so
    together they make the projection a homomorphism on all pairs.
    """
    if not is_normal(g, n):
        raise NotNormal("cannot form a quotient by a non-normal subgroup")
    least = _orbit_least(g.mul[:, _subgroup_generators(n)].T)
    reps = (least == np.arange(g.order)).nonzero()[0]
    proj = reps.searchsorted(least)
    qmul = proj[g.mul[reps[:, None], reps]]
    s = np.array(g.generators, dtype=np.int64)
    if not (proj[g.mul[:, s]] == qmul[proj[:, None], proj[s]]).all():
        raise NotAGroup("projection failed the homomorphism check")
    reps = reps.tolist()
    labels = _derived_labels(
        lambda parent: tuple(f"[{parent[r]}]" for r in reps), g._labels)
    name = f"{g.name}/N{n.order}" if g.name else None
    q = FiniteGroup(qmul, labels, name)
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
        if len(head) != 2 or not (head[1].isascii() and head[1].isdigit()):
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
        if len(head) != 2 or not (head[1].isascii() and head[1].isdigit()):
            raise InvalidData(f"bad header {first!r}; expected 'table <n>'")
        n = int(head[1])
        if n > MAX_ORDER:
            raise TooLarge(f"table order {n} exceeds the cap of {MAX_ORDER}")
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
