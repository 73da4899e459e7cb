"""Inertia groups, prime-index classification, and large-degree constructions.

For a normal subgroup H of prime index q every irreducible of G either
restricts irreducibly to H or is induced from H; this module computes which,
produces extension witnesses, and builds irreducible characters of degree at
least 2^n from chains of normal subgroups with non-abelian quotients.  Every
classification carries verification data that was checked exactly.

The chain walk rests on one lemma: for N normal in M with M/N non-abelian
and psi in Irr(N), the largest constituent of Ind psi has degree at least
2 psi(1) (proof in `construct_large_degree`), so each step of the walk is
one `promote_degree`.

For a table row, Clifford decompositions, classifications and extensions
are views over whole-table arrays that one `_NormalPair` per normal subgroup
holds: the columns that restrict G's table to H, with the restrictions'
norms and multiplicities, the induced table with its norms and <chi, Ind
theta>, and how G permutes the rows of H's table.  Every Clifford and
classification check runs once per pair, over all rows at once, into cached
verdict arrays that a view reads one row of, so that a row fails only on its
own checks.  The multiplicities are read as integers on first use, from a
Gram product computed with the pair's three others, so a check that reads
none of them cannot fail on them.  The sweeps build the normal pairs of one
group together (`_pairs`), with one pass modulo the Gram primes for all
their Gram products; a single pair is the same code on a list of one.  The
verification sweeps read the same arrays, and record a pass only for a
check that ran to the end and held: an error raised while the pair is built
fails every record that needs it.  Inertia groups
and conjugate orbits compare class values directly, so they read no
character table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from .arith import is_prime
from .characters import (Character, ClassFunction, character_table,
                         conjugate_character, decompose, induce,
                         _conj_class_perms, _induction_sums, _inflated_table,
                         _multiplicities, _restriction_classes, _same_group,
                         _table_bound, _table_nums)
from .cyclotomic import (_bound, _crt, _diagonal_values, _evaluate,
                         _fold_bound, _gram_values, _residues, int_dtype,
                         lift, scaled, values)
from .errors import (BadChain, CharcondError, IndexNotPrime,
                     InternalContradiction, NotInvariant, NotIrreducible,
                     NotNormal)
from .groups import (FiniteGroup, QuotientMap, Subgroup, cached,
                     conjugacy_classes, is_abelian, is_normal, quotient,
                     row_keys, subgroup)

__all__ = [
    "InertiaKind", "ClassificationKind", "Classification", "NormalChain",
    "inertia_group", "inertia_dichotomy", "clifford_decomposition",
    "classify_irreducible", "find_extension", "find_extensions",
    "construct_large_degree", "promote_degree",
]


class InertiaKind(enum.Enum):
    WHOLE_GROUP = "whole-group"
    SUBGROUP = "subgroup"


class ClassificationKind(enum.Enum):
    RESTRICTED = "restricted"
    INDUCED = "induced"


def _require(chi: Character, s: Subgroup, needs: str, prime: bool = False) -> None:
    """The checks of a function that takes an irreducible over s, in this
    order: chi is a verified irreducible, s has prime index (when `prime`),
    and s is normal, refused as "<needs> a normal subgroup"."""
    if not isinstance(chi, Character) or not chi.irreducible:
        raise NotIrreducible("operation needs a verified irreducible character")
    if prime and not is_prime(s.index):
        raise IndexNotPrime(f"index {s.index} is not prime")
    if not is_normal(s.parent, s):
        raise NotNormal(f"{needs} a normal subgroup")


# the Clifford checks of a row, in the order they are checked; a row's
# verdict is the index of the first that fails
_CLIFFORD_FAILURES = (
    "restriction constituents have unequal multiplicities {}",
    "constituents are not a single conjugate orbit",
    "degree bookkeeping chi(1) = e t theta(1) fails",
    "<Res chi, Res chi> != e^2 t",
    "Clifford e-bounds violated")

# the classification checks of a row by name: the first four in the
# restricted case, where "restriction_irreducible" holds, the rest in the
# induced case
_CHECKS = ("restriction_irreducible", "restriction_matches",
           "inertia_whole_group", "induced_differs", "orbit_size_q",
           "multiplicity_one", "induced_matches", "inertia_is_subgroup",
           "restriction_reducible")


def _equals(nums: np.ndarray, want) -> np.ndarray:
    """Whether each value, numerators at e in the last axis, is the rational
    integer `want` (broadcast over the leading axes)."""
    return (nums[..., 0] == want) & ~(nums[..., 1:] != 0).any(axis=-1)


class _NormalPair:
    """Whole-table arrays of a normal pair (G, H), all at e = exp(G):

    - ``tg``: the table of G; ``th``: the table of H, lifted to e;
    - ``cols``: the classes of G that hold H's, so that tg[:, cols], one
      gather, is the table of G restricted to H;
    - ``ind``: |H| Ind theta_j, one matmul with the induction counts;
      tg, th and ind keep their degrees in column 0, so `_table_bound`
      bounds each one's entries, and tg's bounds tg[:, cols];
    - four Gram products, set by `_gram_pass` in one pass modulo the Gram
      primes with those of the other pairs of G built with this one:
      ``res_norm``, |H| <Res chi_r, Res chi_r>; ``res_gram``, |H| <Res
      chi_r, theta_j>; ``ind_norm``, |H|^2 |G| <Ind theta_j, Ind theta_j>;
      and ``ind_gram``, |H| |G| <chi_r, Ind theta_j>, each a copy of the
      dtype of its own `_bound`, equal to the pair's built alone;
    - ``perm[g, j]``: the row equal to theta_j^g, theta_j^g(h) =
      theta_j(g h g^-1), matched once per distinct permutation of the
      H-classes by array equality; ``stab[j]``: the order of the inertia
      group of theta_j; ``is_h[j]``: it is H itself; ``orbit[i, j]``:
      theta_j is conjugate to theta_i;
    - ``mult``: res_gram as integers, read off it on first use, so that a
      check that reads no multiplicity never fails on one, and
      ``matches[r, j]``: Res chi_r = theta_j, on first use;
    - ``clifford``: the first constituent, e, t and the Clifford verdict of
      every row, and ``checks``: the classification checks of every row,
      each one array pass over the rows on first use.

    Arrays and integers only, so the subgroup cache that keeps it keeps no
    group alive.  The views read one row of the verdict arrays, and the
    sweeps read them whole.
    """

    def __init__(self, s: Subgroup) -> None:
        g, h = s.parent, s.as_group()
        e = self.e = g.exponent()
        self.order_g, self.order_h = g.order, s.order
        self.sizes_g = np.array(conjugacy_classes(g).sizes)
        self.sizes_h = np.array(conjugacy_classes(h).sizes)
        self.tg, th = _table_nums(g), _table_nums(h)
        self.th = lift(th, h.exponent(), e, _table_bound(th, h.exponent()))
        self.cols = _restriction_classes(s)
        self.ind = _induction_sums(s, self.th, _table_bound(self.th, e))
        k = len(th)
        index = {key: j for j, key in enumerate(row_keys(th))}
        perms = _conj_class_perms(s)
        keys = row_keys(perms)
        moved = {key: [index.get(x, -1) for x in row_keys(th[:, p])]
                 for key, p in dict(zip(keys, perms)).items()}
        self.perm = np.array([moved[key] for key in keys], dtype=np.int64)
        if np.any(self.perm < 0):
            raise InternalContradiction(
                "conjugation does not permute the rows of the subgroup's table")
        self.orbit = np.zeros((k, k), dtype=bool)
        self.orbit[np.arange(k), self.perm] = True
        fixed = self.perm == np.arange(k)
        self.stab = fixed.sum(axis=0)
        self.is_h = (fixed == (s.member_index() >= 0)[:, None]).all(axis=0)

    @cached_property
    def matches(self) -> np.ndarray:
        """matches[r, j]: Res chi_r = theta_j, on the gather's values."""
        return (self.tg[:, None, self.cols] == self.th).all(axis=(2, 3))

    @cached_property
    def mult(self) -> np.ndarray:
        """<Res chi_r, theta_j> for every r and j; NotACharacter when one is
        not a nonnegative integer."""
        return _multiplicities(self.res_gram, self.e, self.order_h)

    @cached_property
    def clifford(self) -> np.ndarray:
        """Rows (j, e, t, fail) over the rows r of G's table: j_r the first
        constituent of Res chi_r (0 when it has none), e_r = <Res chi_r,
        theta_j>, t_r the size of the orbit of theta_j, and fail_r the index
        in `_CLIFFORD_FAILURES` of the first check that row r fails, -1 when
        Res chi_r = e_r (the orbit of theta_j) holds with chi(1) = e t
        theta(1), <Res chi, Res chi> = e^2 t, e^2 <= |I/H| and e^2 t <= |G/H|.
        """
        m, parts = self.mult, self.mult != 0
        rows, j = np.arange(len(m)), parts.argmax(axis=1)
        e, orbit = m[rows, j], self.orbit[j]
        orbit[rows, j] = True
        t = orbit.sum(axis=1)
        fails = np.stack([
            ~parts.any(axis=1) | (parts & (m != e[:, None])).any(axis=1),
            (parts != orbit).any(axis=1),
            self.tg[:, 0, 0] != e * t * self.th[j, 0, 0],
            ~_equals(self.res_norm, e * e * t * self.order_h),
            (e * e > self.stab[j] // self.order_h)
            | (e * e * t > self.order_g // self.order_h)])
        return np.stack([j, e, t, np.where(fails.any(axis=0),
                                           fails.argmax(axis=0), -1)])

    @cached_property
    def checks(self) -> np.ndarray:
        """The classification checks of every row under a prime index, one
        row per name of `_CHECKS`: the restricted case's, where <Res chi,
        Res chi> = 1 and Res chi must be theta_j on the gather's values, then
        the induced case's; Ind theta_j = chi_r is read once per row r, at
        j = j_r."""
        j, e, t, _ = self.clifford
        q, m = self.order_g // self.order_h, self.mult
        induced = (self.ind[j] == scaled(self.tg, self.order_h,
                                         _table_bound(self.tg, self.e))
                   ).all(axis=(1, 2))
        return np.stack([
            _equals(self.res_norm, self.order_h),
            ((m != 0).sum(axis=1) == 1) & (m[np.arange(len(m)), j] == 1)
            & self.matches[np.arange(len(m)), j],
            self.stab[j] == self.order_g, ~induced, t == q, e == 1, induced,
            self.is_h[j], _equals(self.res_norm, q * self.order_h)])

    def frobenius(self) -> str:
        """The detail of Frobenius reciprocity, <chi_r, Ind theta_i> =
        <Res chi_r, theta_i> for every r and i, the left side ind_gram, from
        the induced table's own evaluation, the right the multiplicity Gram
        of the gather, compared by exact division by |G|: "" when it holds,
        else <Ind theta_i, chi_r> and <theta_i, Res chi_r>, the conjugates,
        at the last (i, r) where they differ."""
        lhs, rhs, og = self.ind_gram, self.res_gram, self.order_g
        bad = np.argwhere(((lhs % og != 0) | (lhs // og != rhs)
                           ).any(axis=2).T).tolist()
        if not bad:
            return ""
        i, r = bad[-1]
        return (f"<Ind t{i}, x{r}> = "
                f"{values(lhs[r, i][None], self.e, self.order_h * self.order_g)[0].conjugate()}"
                f" != {values(rhs[r, i][None], self.e, self.order_h)[0].conjugate()}")

    def extensions(self, j: int) -> list[int]:
        """The rows chi_r with Res chi_r = theta_j, in table order, for a
        theta_j invariant under a prime index, which must have one."""
        rows = np.flatnonzero(self.matches[:, j])
        if not len(rows):
            raise InternalContradiction(
                "no extension found for an invariant character of prime index")
        return rows.tolist()

    def products(self, thetas: np.ndarray, rows: list[int], qmap: QuotientMap):
        """Gallagher's products chi_r * psi_i for r in rows, an extension of
        theta_j for each j in thetas, and psi_i the table of G/H inflated to
        G: whether the products of each r repeat, whether |H| times their
        sum differs from |H| Ind theta_j, and |G| times their norms,
        numerators at e of shape (rows, rows of G/H, .).

        One pass modulo the Gram primes: a product is G's evaluated row
        times the evaluated psi_i, its norm is interpolated exactly, and the
        products and sums are compared at every embedding, with primes whose
        product exceeds twice a bound on every numerator compared.  A
        product's numerators sum 2 phi - 1 folded convolution sums of at
        most phi terms, and a norm's sum, per class, phi^3 terms at each of
        e powers of the power table."""
        e, eq, psi = self.e, qmap.group.exponent(), _inflated_table(qmap)
        psi = lift(psi, eq, e, _table_bound(psi, eq))
        n, m, phi = len(rows), len(psi), psi.shape[2]
        top, fold = _table_bound(self.tg, e) * _table_bound(psi, e), _fold_bound(e, e)
        bound = max(self.order_g * phi ** 3 * top ** 2 * e * fold,
                    _table_bound(self.ind, e)
                    + self.order_h * m * (2 * phi - 1) * phi * top * fold)
        seen = []

        def residues(data):
            p, x = data.prime, _evaluate(self.tg[rows], data)[:, :, None]
            prods = x * _evaluate(psi, data)[:, None] % p
            diff = self.order_h * prods.sum(axis=2) - _evaluate(self.ind[thetas], data)
            seen.append((prods.transpose(1, 2, 0, 3), (diff % p).any(axis=(0, 2))))
            return [_diagonal_values(prods, _residues(self.sizes_g, p), data)]
        (norms,) = _crt(e, [bound], residues)
        keys = row_keys(np.concatenate([x for x, _ in seen], axis=2).reshape(n * m, -1))
        repeated = [len(set(keys[x * m:(x + 1) * m])) < m for x in range(n)]
        return np.array(repeated), np.any([d for _, d in seen], axis=0), norms


def _gram_pass(pairs: list[_NormalPair]) -> None:
    """Set the four Gram products of pairs over one group G, from one pass
    modulo the Gram primes for all of them: G's table is evaluated once per
    prime and gathered at the concatenated ``cols``, the restriction norms
    are segment sums of its weighted products, the multiplicities one
    batched matmul against the block diagonal of the lifted H tables, and
    the stacked ``ind`` rows are evaluated once for both induced products.
    The primes serve the largest bound of the batch, and each pair's cut is
    a copy of the dtype of its own `_bound`, as when it is built alone.
    Those bounds are products of integers: the `_table_bound` of G's table,
    which bounds its gather at cols, and of each pair's th and ind; the
    class sizes are reduced mod each prime once per pass."""
    first = pairs[0]
    e, w, bg = first.e, first.tg.shape[2], _table_bound(first.tg, first.e)
    ends = list(accumulate(len(pair.th) for pair in pairs))
    starts = [0] + ends[:-1]
    cols = np.concatenate([pair.cols for pair in pairs])
    wh = np.concatenate([pair.sizes_h for pair in pairs])
    ind = np.concatenate([pair.ind for pair in pairs])
    block = np.zeros((ends[-1], ends[-1], w),
                     dtype=np.result_type(*(pair.th for pair in pairs)))
    bounds = []
    for pair, lo, hi in zip(pairs, starts, ends):
        block[lo:hi, lo:hi] = pair.th
        bh, bi = _table_bound(pair.th, e), _table_bound(pair.ind, e)
        oh, og = pair.order_h, pair.order_g
        bounds.append([_bound(bg, bg, oh, e, w), _bound(bg, bh, oh, e, w),
                       _bound(bi, bi, og, e, w), _bound(bg, bi, og, e, w)])

    def residues(data):
        p, x = data.prime, _evaluate(first.tg, data)
        xr, xi = x[..., cols], _evaluate(ind, data)
        rh, rg = _residues(wh, p), _residues(first.sizes_g, p)
        return [np.add.reduceat(xr * rh % p * xr[data.conj] % p,
                                starts, axis=-1) % p,
                _gram_values(xr, _evaluate(block, data), rh, data),
                _diagonal_values(xi, rg, data), _gram_values(x, xi, rg, data)]
    batch = _crt(e, [max(b) for b in zip(*bounds)], residues)
    for i, (pair, lo, hi, b) in enumerate(zip(pairs, starts, ends, bounds)):
        cuts = batch[0][:, i], batch[1][:, lo:hi], batch[2][lo:hi], batch[3][:, lo:hi]
        pair.res_norm, pair.res_gram, pair.ind_norm, pair.ind_gram = (
            x.astype(int_dtype(bound), order="C") for x, bound in zip(cuts, b))


def _pairs(subs: list[Subgroup]) -> None:
    """Build the pairs (G, s) of normal subgroups s of one group that no
    cache holds yet, with one `_gram_pass` for all of them, and keep each as
    `_pair` would.  Raises nothing: a subgroup whose own arrays raise is left
    out, and a pass that raises keeps no pair, so that `_pair` raises the
    error again within the records that need it."""
    built = []
    for s in subs:
        if _pair.peek(s) is None:
            try:
                built.append((s, _NormalPair(s)))
            except CharcondError:
                pass
    if built:
        try:
            _gram_pass([pair for _, pair in built])
        except CharcondError:
            return
    for s, pair in built:
        _pair.put(s, pair)


@cached
def _pair(s: Subgroup) -> _NormalPair:
    """The arrays of the normal pair (G, s), built once per subgroup cache
    and kept there by `groups.cached`: the build of `_pairs` on a list of
    one, which raises where `_pairs` leaves the pair out."""
    pair = _NormalPair(s)
    _gram_pass([pair])
    return pair


def _clifford_row(s: Subgroup, r: int) -> tuple[int, list[int]]:
    """Res chi_r as e * (the orbit of theta_j), as rows of H's table, read
    off the pair's Clifford verdicts: the first check that row r fails
    raises, and no other row's."""
    pair = _pair(s)
    j, e, _, fail = pair.clifford[:, r].tolist()
    if fail >= 0:
        parts = pair.mult[r][pair.mult[r] != 0]
        raise InternalContradiction(
            _CLIFFORD_FAILURES[fail].format(sorted(set(parts.tolist()))))
    # the rows conjugate to theta_j: j first, then the rest in table order,
    # which is `sort_key` order among rows of one degree
    return e, [j] + [i for i in np.flatnonzero(pair.orbit[j]).tolist() if i != j]


def _classify_row(s: Subgroup, r: int):
    """(kind, theta row, e, orbit rows, checks) of chi_r over a prime index,
    read off the pair's classification checks: restricted when <Res chi,
    Res chi> = 1, else induced, which raises unless its checks all hold."""
    pair = _pair(s)
    j, checks = int(pair.clifford[0, r]), pair.checks[:, r].tolist()
    if checks[0]:
        return (ClassificationKind.RESTRICTED, j, 1, [j],
                dict(zip(_CHECKS[:4], checks[:4])))
    e, orbit = _clifford_row(s, r)
    checks = dict(zip(_CHECKS[4:], checks[4:]))
    if not all(checks.values()):
        raise InternalContradiction(f"induced-case verification failed: {checks}")
    return ClassificationKind.INDUCED, j, e, orbit, checks


def inertia_group(s: Subgroup, theta: Character) -> Subgroup:
    """The stabilizer of theta under conjugation by the parent group."""
    if not is_normal(s.parent, s):
        raise NotNormal("inertia groups need a normal subgroup")
    if not _same_group(theta.group, s.as_group()):
        raise NotNormal("character does not live on the subgroup")
    nums = theta.nums
    # g fixes theta when theta(g h g^-1) = theta(h) on every class; stored
    # forms are canonical, so equal values have equal numerator rows
    fixed = (nums[_conj_class_perms(s)] == nums).all(axis=(1, 2))
    return subgroup(s.parent, np.flatnonzero(fixed))


def inertia_dichotomy(s: Subgroup, theta: Character) -> InertiaKind:
    """For prime index, the inertia group is the whole group or the subgroup."""
    if not is_prime(s.index):
        raise IndexNotPrime(f"index {s.index} is not prime")
    inert = inertia_group(s, theta)
    if inert.order == s.parent.order:
        return InertiaKind.WHOLE_GROUP
    if inert.elements == s.elements:
        return InertiaKind.SUBGROUP
    raise InternalContradiction(
        f"inertia group of order {inert.order} is neither H nor G")


def conjugate_orbit(s: Subgroup, theta: Character) -> tuple[Character, ...]:
    """The distinct conjugates of theta under the parent group, theta first:
    one conjugate per distinct permutation of the H-classes."""
    _, reps = np.unique(_conj_class_perms(s), axis=0, return_index=True)
    seen = {conjugate_character(theta, s, int(g)) for g in reps}
    seen.discard(theta)
    return (theta,) + tuple(sorted(seen, key=lambda c: c.sort_key()))


def clifford_decomposition(chi: Character, s: Subgroup) -> tuple[int, tuple[Character, ...]]:
    """Restriction of an irreducible to a normal subgroup as e * (conjugate orbit).

    Returns (e, orbit) and verifies the degree and norm bookkeeping exactly:
    chi(1) = e * t * theta(1), <Res chi, Res chi> = e^2 t, e^2 <= |I/H| and
    e^2 t <= |G/H|.
    """
    _require(chi, s, "Clifford decomposition needs")
    e, orbit = _clifford_row(s, character_table(s.parent).index_of(chi))
    table_h = character_table(s.as_group())
    return e, tuple(table_h[i] for i in orbit)


@dataclass(frozen=True)
class Classification:
    """Outcome of the prime-index dichotomy for one irreducible character."""

    kind: ClassificationKind
    chi: Character
    theta: Character
    e: int
    t: int
    orbit: tuple[Character, ...]
    checks: dict = field(compare=False)

    def verified(self) -> bool:
        return all(self.checks.values())


def classify_irreducible(chi: Character, s: Subgroup) -> Classification:
    """Decide whether chi restricts irreducibly to H or is induced from H.

    The two cases are mutually exclusive; each returned object carries the
    exact checks that were performed.
    """
    _require(chi, s, "classification needs", prime=True)
    kind, j, e, orbit, checks = _classify_row(
        s, character_table(s.parent).index_of(chi))
    table_h = character_table(s.as_group())
    return Classification(kind, chi, table_h[j], e, len(orbit),
                          tuple(table_h[i] for i in orbit), checks)


def find_extensions(theta: Character, s: Subgroup) -> tuple[Character, ...]:
    """All irreducibles of the parent group restricting to theta, table order."""
    _require(theta, s, "extensions need", prime=True)
    j = character_table(s.as_group()).index_of(theta)
    pair = _pair(s)
    if pair.stab[j] != s.parent.order:
        raise NotInvariant("character is not invariant in the parent group")
    rows = pair.extensions(j)
    table = character_table(s.parent)
    return tuple(table[r] for r in rows)


def find_extension(theta: Character, s: Subgroup) -> Character:
    """The canonical-first extension of an invariant theta under prime index."""
    return find_extensions(theta, s)[0]


@dataclass(frozen=True)
class NormalChain:
    """A chain 1 = N_0 <= ... <= N_n = G, each normal in G, with every
    quotient N_i / N_(i-1) non-abelian.  ``steps[i]`` is N_i as a subgroup
    of N_(i+1), reindexed once for the quotient check and read again by the
    degree walk."""

    group: FiniteGroup
    subgroups: tuple[Subgroup, ...]
    steps: tuple[Subgroup, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        subs = self.subgroups
        if len(subs) < 2:
            raise BadChain("chain needs at least two terms")
        if subs[0].order != 1:
            raise BadChain("chain must start at the trivial subgroup")
        if subs[-1].order != self.group.order:
            raise BadChain("chain must end at the whole group")
        for s in subs:
            if s.parent is not self.group:
                raise BadChain("chain subgroup lives in the wrong group")
            if not is_normal(self.group, s):
                raise BadChain(f"chain subgroup of order {s.order} is not normal")
        steps = []
        for prev, cur in zip(subs, subs[1:]):
            if not set(prev.elements) <= set(cur.elements):
                raise BadChain("chain is not ascending")
            if cur.order == prev.order:
                raise BadChain("chain has a repeated term")
            steps.append(_reindex_subgroup(prev, cur))
            q, _ = quotient(cur.as_group(), steps[-1])
            if is_abelian(q):
                raise BadChain(
                    f"quotient of orders {cur.order}/{prev.order} is abelian")
        object.__setattr__(self, "steps", tuple(steps))

    @property
    def length(self) -> int:
        return len(self.subgroups) - 1


def _reindex_subgroup(inner: Subgroup, outer: Subgroup) -> Subgroup:
    """View `inner` as a subgroup of outer.as_group()."""
    member = outer.member_index()
    elems = tuple(int(member[g]) for g in inner.elements)
    if any(v < 0 for v in elems):
        raise BadChain("inner subgroup is not contained in the outer one")
    return subgroup(outer.as_group(), elems)


def promote_degree(theta: Character, s: Subgroup) -> Character:
    """An irreducible of the parent with degree >= theta(1): the largest
    constituent of Ind theta, the first in table order among those of its
    degree."""
    _require(theta, s, "promotion needs")
    table = character_table(s.parent)
    parts = decompose(induce(theta, s), table)
    chi = table[max(parts, key=lambda im: (table[im[0]].degree, -im[0]))[0]]
    if chi.degree < theta.degree:
        raise InternalContradiction("induced constituent lost degree")
    return chi


def construct_large_degree(chain: NormalChain) -> Character:
    """An irreducible character of degree at least 2^(chain length).

    Starts from a largest row of N_1 and walks the chain by `promote_degree`.
    Each step N = N_m <= M = N_(m+1) at least doubles the degree: the
    constituents chi of Ind psi all lie over one orbit of size t, with
    chi(1) = e_chi t psi(1).  Were e t = 1 for the largest, t = 1 and every
    e_chi = 1, so psi extends to some chi_0; by Gallagher the constituents
    are then chi_0 beta, beta in Irr(M/N), with multiplicity beta(1), so
    every beta is linear and M/N is abelian, which `NormalChain` refuses.
    """
    subs = chain.subgroups
    psi = max(character_table(subs[1].as_group()), key=lambda row: row.degree)
    if psi.degree < 2:
        raise InternalContradiction("non-abelian bottom group has no degree >= 2")
    for m in range(1, chain.length):
        psi = promote_degree(psi, chain.steps[m])
        if psi.degree < 2 ** (m + 1):
            raise InternalContradiction(
                f"degree {psi.degree} fell below 2^{m + 1} during the walk")
    # psi lives on a copy of G with G's classes and exponent, so its stored
    # form is canonical on G too; Character.of checks its norm again there
    return Character.of(ClassFunction._make(chain.group, psi.e, psi.nums,
                                            psi.den), irreducible=True)
