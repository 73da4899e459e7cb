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
are views over whole-table arrays of the normal pairs (G, H) of one group,
which `_pairs` builds together as one `_NormalPairs`, its arrays created
concatenated along the rows of the H tables: the columns that restrict G's
table to each H, with the restrictions' norms and multiplicities, the
induced tables with their norms and <chi, Ind theta>, and how G permutes
the rows of each H table.  A pair, `_NormalPair`, is a view of its own
segment of them; a single pair is the same code on a list of one.  Every
Clifford and classification check runs once per group, over all rows of
all its pairs at once, into cached verdict arrays that a view reads one row
of its segment of, so that a row fails only on its own checks.  The
multiplicities are read as integers on first use, from a Gram product
computed with the three others in one pass modulo the Gram primes for the
whole group, so a check that reads none of them cannot fail on them, and a
pair whose multiplicities are not integers fails only the checks that read
them.  The verification sweeps read the same arrays, and record a pass only
for a check that ran to the end and held: an error raised while a pair is
built fails every record that needs it, and Gallagher's products of the
pairs of prime index of a group take one more pass (`_products`).  Inertia
groups and conjugate orbits compare class values directly, so they read no
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
                         _integers, _multiplicities, _restriction_classes,
                         _same_group, _table_bound, _table_nums)
from .cyclotomic import (_bound, _crt, _diagonal_values, _evaluate,
                         _fold_bound, _gram_values, _matmul_mod, _residues,
                         int_dtype, lift, values)
from .errors import (BadChain, CharcondError, IndexNotPrime,
                     InternalContradiction, NotInvariant, NotIrreducible,
                     NotNormal)
from .groups import (FiniteGroup, Subgroup, cached,
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


def _segment(s: Subgroup) -> tuple:
    """The arrays of the normal pair (G, s) that `_NormalPairs` concatenates,
    at e = exp(G): H's table lifted to e, the classes of G that hold H's,
    H's class sizes, |H| Ind theta_j for every row j, ``perm``, local to H's
    rows, and whether each element of G lies in H.  Raises where the pair's
    own arrays cannot be built."""
    g, h = s.parent, s.as_group()
    th = _table_nums(h)
    lifted = lift(th, h.exponent(), g.exponent(), _table_bound(th, h.exponent()))
    index = {key: j for j, key in enumerate(row_keys(th))}
    perms = _conj_class_perms(s)
    keys = row_keys(perms)
    moved = {key: [index.get(x, -1) for x in row_keys(th[:, p])]
             for key, p in dict(zip(keys, perms)).items()}
    perm = np.array([moved[key] for key in keys], dtype=np.int64)
    if (perm < 0).any():
        raise InternalContradiction(
            "conjugation does not permute the rows of the subgroup's table")
    return (lifted, _restriction_classes(s), np.array(conjugacy_classes(h).sizes),
            _induction_sums(s, lifted, _table_bound(lifted, g.exponent())),
            perm, s.member_index() >= 0)


# where the segment of pair i lies in each array of `_NormalPairs`, axis by
# axis, from its rows s of H, starts[i]:ends[i], and from i
_ALL = slice(None)
_CUTS = {name: cut for cut, names in (
    (lambda s, i: s, "sizes_h cols ind stab is_h ind_norm reciprocity"),
    (lambda s, i: (s, slice(s.stop - s.start)), "th orbit"),
    (lambda s, i: (_ALL, i), "res_norm"),
    (lambda s, i: (_ALL, s), "perm res_gram ind_gram mult matches induction"),
    (lambda s, i: (_ALL, _ALL, i), "clifford checks")) for name in names.split()}


class _NormalPairs:
    """The normal pairs (G, H_0), (G, H_1), ... of one group G, built
    together by `_pairs`, as arrays at e = exp(G) created concatenated along
    the rows of the H tables: pair i holds rows starts[i]:ends[i], its
    segment, and ``seg[j]`` is the pair of row j.  Each row's classes of H,
    padded to the most classes k of an H, lie at ``pad[j]`` along the
    concatenated classes, of which ``real[j]`` are its own:

    - ``tg``: the table of G; ``th[j]``: row j of the table of H_seg[j],
      lifted to e and padded with zeros to k classes;
    - ``cols``: the classes of G that hold the classes of each H, so that
      tg[:, cols], one gather, is G's table restricted to every H;
    - ``ind``: |H| Ind theta_j, one matmul with H's induction counts;
    - ``perm[g, j]``: the row of H_seg[j] equal to theta_j^g, theta_j^g(h)
      = theta_j(g h g^-1), local to the segment, matched once per distinct
      permutation of the H-classes by array equality; ``orbit[i, j]``:
      theta_j is conjugate to theta_i, j local and padded to k;
      ``stab[j]``: the order of the inertia group of theta_j; ``is_h[j]``:
      it is H itself;
    - four Gram products from one pass modulo the Gram primes
      (`_gram_pass`): ``res_norm[r, i]``, |H_i| <Res chi_r, Res chi_r>;
      ``res_gram[r, j]``, |H| <Res chi_r, theta_j>; ``ind_norm[j]``,
      |H|^2 |G| <Ind theta_j, Ind theta_j>; and ``ind_gram[r, j]``, |H| |G|
      <chi_r, Ind theta_j>; ``dtypes[i]``, those of pair i's own bounds.

    Every verdict is one array pass over all the pairs on first use, with
    segment reductions over each pair's rows and gathers at the padded
    classes: ``mult``, ``matches``, ``clifford``, ``checks``, ``induction``
    and ``reciprocity``.  Arrays, integers and dtypes only, so that the
    subgroup caches that keep it keep no group alive.  `_NormalPair` is one
    pair's segment.
    """

    def __init__(self, g: FiniteGroup, segments: list[tuple]) -> None:
        self.e, self.order_g, self.tg = g.exponent(), g.order, _table_nums(g)
        self.sizes_g = np.array(conjugacy_classes(g).sizes)
        ths, cols, sizes, inds, perms, members = zip(*segments)
        ks = [len(th) for th in ths]
        self.ends = list(accumulate(ks))
        self.starts = [0] + self.ends[:-1]
        n, k = self.ends[-1], max(ks)
        self.seg = np.arange(len(ks)).repeat(ks)
        self.order_h = np.array([x.sum() for x in members])
        self.cols, self.sizes_h = np.concatenate(cols), np.concatenate(sizes)
        self.ind, self.perm = np.concatenate(inds), np.concatenate(perms, axis=1)
        # past its own classes a row's padding points at the last class,
        # where th is 0
        self.pad = np.minimum(np.repeat(self.starts, ks)[:, None] + np.arange(k), n - 1)
        self.real = np.arange(k) < np.repeat(ks, ks)[:, None]
        self.th = np.zeros((n, k, self.tg.shape[2]), dtype=np.result_type(*ths))
        for th, lo in zip(ths, self.starts):
            self.th[lo:lo + len(th), :len(th)] = th
        self.orbit = np.zeros((n, k), dtype=bool)
        self.orbit[np.arange(n), self.perm] = True
        self.at = np.arange(n) - self.pad[:, 0]
        fixed = self.perm == self.at
        self.stab = fixed.sum(axis=0)
        self.is_h = (fixed == np.stack(members, axis=1)[:, self.seg]).all(axis=0)
        self._gram_pass(ths, inds)

    def _gram_pass(self, ths, inds) -> None:
        """The four Gram products of every pair, from one pass modulo the
        Gram primes: G's table is evaluated once per prime and gathered at
        ``cols``, the restriction norms are segment sums of its weighted
        products, the multiplicities one batch of matmuls over the padded
        classes of each pair, and ``ind`` is evaluated once for both induced
        products.  The primes serve the largest bound of the pairs, and
        each pair's dtypes are those of its own, as when it is built
        alone.  The bounds are products of integers: the
        `_table_bound` of G's table, which bounds its gather at cols, and of
        each pair's th and ind; the class sizes are reduced mod each prime
        once per pass."""
        e, og, w, bg = self.e, self.order_g, self.tg.shape[2], _table_bound(self.tg, self.e)
        bounds = [[_bound(bg, bg, oh, e, w), _bound(bg, _table_bound(th, e), oh, e, w),
                   _bound(bi, bi, og, e, w), _bound(bg, bi, og, e, w)]
                  for th, bi, oh in zip(ths, (_table_bound(a, e) for a in inds),
                                        self.order_h.tolist())]
        self.dtypes = [dict(zip(("res_norm", "res_gram", "ind_norm", "ind_gram"),
                                map(int_dtype, b))) for b in bounds]

        def residues(data):
            p, x = data.prime, _evaluate(self.tg, data)
            xr, xi = x[..., self.cols], _evaluate(self.ind, data)
            rh, rg = _residues(self.sizes_h, p), _residues(self.sizes_g, p)
            # one batch of matmuls, a pair's padded rows of th against its
            # padded classes of the gather, read at each pair's own rows
            pad, yh = self.pad[self.starts], _evaluate(self.th, data)[data.conj]
            mult = _matmul_mod(xr[..., pad].transpose(0, 2, 1, 3), (
                yh * rh[self.pad] % p)[:, pad].transpose(0, 1, 3, 2), p)
            return [np.add.reduceat(xr * rh % p * xr[data.conj] % p,
                                    self.starts, axis=-1) % p,
                    mult.transpose(0, 2, 1, 3)[..., self.seg, self.at],
                    _diagonal_values(xi, rg, data), _gram_values(x, xi, rg, data)]
        self.res_norm, self.res_gram, self.ind_norm, self.ind_gram = _crt(
            e, [max(b) for b in zip(*bounds)], residues)

    def _segments(self, a: np.ndarray, reduce=np.logical_or) -> np.ndarray:
        """`reduce` over each pair's rows in the last axis of a."""
        return reduce.reduceat(a, self.starts, axis=-1)

    @cached_property
    def mult(self) -> np.ndarray:
        """<Res chi_r, theta_j> for every r and j, read off res_gram on first
        use, so that a check that reads no multiplicity never fails on one:
        0 where one is not a nonnegative integer, and ``refused[i]`` marks
        the pairs that hold such a value."""
        m, bad = _integers(self.res_gram, self.order_h[self.seg])
        self.refused = self._segments(bad.any(axis=0))
        return m

    @cached_property
    def matches(self) -> np.ndarray:
        """matches[r, j]: Res chi_r = theta_j, on the gather's values at the
        classes of j's own H: each restricted row, padded with zeros as th
        is, and each row of th is named by its key (`row_keys`), and the
        names are compared."""
        n, (rows, _, w), at = len(self.seg), self.tg.shape, self.starts
        res = self.tg.take(self.cols[self.pad[at]], axis=1) * self.real[at, :, None]
        names = {}
        ids = np.array([names.setdefault(key, len(names)) for key in row_keys(
            np.concatenate([res.reshape(-1, *self.th.shape[1:]), self.th]))])
        return ids[:-n].reshape(rows, -1)[:, self.seg] == ids[-n:]

    @cached_property
    def clifford(self) -> np.ndarray:
        """(j, e, t, fail) of every row r of G's table over every pair i,
        shape (4, rows of G, pairs): j the first constituent of Res chi_r on
        H_i's rows, local to them (0 when it has none), e = <Res chi_r,
        theta_j>, t the size of the orbit of theta_j, and fail the index in
        `_CLIFFORD_FAILURES` of the first check that the row fails, -1 when
        Res chi_r = e (the orbit of theta_j) holds with chi(1) = e t
        theta(1), <Res chi, Res chi> = e^2 t, e^2 <= |I/H| and e^2 t <=
        |G/H|.  The first constituent is a segment minimum, t a segment sum
        of the orbit rows of the first constituents, gathered at each
        pair's rows."""
        m, n, oh = self.mult, len(self.seg), self.order_h
        parts, rows, starts = m != 0, np.arange(len(m))[:, None], np.array(self.starts)
        j = self._segments(np.where(parts, np.arange(n), n), np.minimum)
        j = np.where(j < n, j, starts)
        e = m[rows, j]
        orbit = self.orbit[j[:, self.seg], self.at]
        orbit[rows, j] = True
        t = self._segments(orbit, np.add)
        fails = np.array([
            ~self._segments(parts) | self._segments(parts & (m != e[:, self.seg])),
            self._segments(parts != orbit),
            self.tg[:, :1, 0] != e * t * self.th[j, 0, 0],
            ~_equals(self.res_norm, e * e * t * oh),
            (e * e > self.stab[j] // oh) | (e * e * t > self.order_g // oh)])
        return np.array([j - starts, e, t, np.where(fails.any(axis=0),
                                                    fails.argmax(axis=0), -1)])

    @cached_property
    def checks(self) -> np.ndarray:
        """The classification checks of every row under every pair, shape
        (names of `_CHECKS`, rows of G, pairs), one row per name: the
        restricted case's, where <Res chi, Res chi> = 1 and Res chi must be
        theta_j on the gather's values, then the induced case's; Ind theta_j
        = chi_r is read once per row r, at j = j_r."""
        j, e, t, _ = self.clifford
        m, oh, j = self.mult, self.order_h, j + self.starts
        rows, q, by = np.arange(len(m))[:, None], self.order_g // oh, oh[:, None, None]
        # |H| chi_r in a width that holds it
        tg = self.tg.astype(int_dtype(_table_bound(self.tg, self.e) * int(oh.max())),
                            copy=False)
        induced = (self.ind[j] == tg[:, None] * by).all(axis=(2, 3))
        return np.array([
            _equals(self.res_norm, oh), (self._segments(m != 0, np.add) == 1)
            & (m[rows, j] == 1) & self.matches[rows, j],
            self.stab[j] == self.order_g, ~induced, t == q, e == 1, induced,
            self.is_h[j], _equals(self.res_norm, q * oh)])

    @cached_property
    def induction(self) -> np.ndarray:
        """For every theta_j, where Res Ind theta_j differs from |I/H| times
        its orbit sum, <Ind theta_j, Ind theta_j> from |I/H|, I = H from
        that norm being 1, and Ind theta_j(1) from [G:H] theta_j(1): shape
        (4, rows of H).  Res Ind theta by the gather of ind, at the classes
        of each H only; |I/H| times the orbit sums by the orbit rows; the
        norms by the Gram product, |I/H| by the stabilizers."""
        n, oh, og = len(self.seg), self.order_h[self.seg], self.order_g
        ratio, scale = self.stab // oh, oh * oh * og
        # the orbit sums, accumulated at each orbit's first row: at most n
        # rows of th, each taken |I| = ratio |H| <= |G| times
        first = self.pad[np.arange(n), self.orbit.argmax(axis=1)]
        sums = np.zeros(self.th.shape, dtype=int_dtype(n * og * _table_bound(self.th, self.e)))
        np.add.at(sums, first, self.th)
        res = self.ind[np.arange(n)[:, None], self.cols[self.pad]]
        return np.array([
            ((res != sums[first] * (ratio * oh)[:, None, None]).any(axis=2)
             & self.real).any(axis=1),
            ~_equals(self.ind_norm, ratio * scale),
            _equals(self.ind_norm, scale) != self.is_h,
            ~_equals(self.ind[:, 0], og // oh * self.th[:, 0, 0] * oh)])

    @cached_property
    def reciprocity(self) -> np.ndarray:
        """reciprocity[j, r]: Frobenius reciprocity <chi_r, Ind theta_j> =
        <Res chi_r, theta_j> fails, the left side ind_gram, from the induced
        table's own evaluation, the right the multiplicity Gram of the
        gather, compared by exact division by |G|."""
        lhs, og = self.ind_gram, self.order_g
        return ((lhs % og != 0) | (lhs // og != self.res_gram)).any(axis=2).T


class _NormalPair:
    """The normal pair (G, H) that is pair i of ``pairs``, a `_NormalPairs`:
    each array of the pair is its segment there, read on first use (see
    `_CUTS`), with H's rows and classes numbered from 0, so that a row fails
    only on its own checks.  The Gram products take the dtypes of the
    pair's own bounds, and ``mult``, ``clifford`` and ``checks`` raise the
    NotACharacter of a pair whose multiplicities are not integers.  e,
    order_g, sizes_g and tg are G's."""

    def __init__(self, pairs: _NormalPairs, i: int) -> None:
        self.pairs, self.i, self.lo, self.hi = pairs, i, pairs.starts[i], pairs.ends[i]
        self.e, self.order_g, self.sizes_g, self.tg, self.order_h = (
            pairs.e, pairs.order_g, pairs.sizes_g, pairs.tg, int(pairs.order_h[i]))

    def __getattr__(self, name):
        if name not in _CUTS:
            raise AttributeError(name)
        pairs, i = self.pairs, self.i
        value = getattr(pairs, name)[_CUTS[name](slice(self.lo, self.hi), i)]
        if name in ("mult", "clifford", "checks") and pairs.refused[i]:
            _multiplicities(self.res_gram, self.e, self.order_h)
        if name in pairs.dtypes[i]:
            value = value.astype(pairs.dtypes[i][name], copy=False)
        setattr(self, name, value)
        return value

    def frobenius(self) -> str:
        """The detail of Frobenius reciprocity for every r and i: "" when it
        holds, else <Ind theta_i, chi_r> and <theta_i, Res chi_r>, the
        conjugates, at the last (i, r) where they differ."""
        if not self.reciprocity.any():
            return ""
        i, r = (int(at[-1]) for at in self.reciprocity.nonzero())
        lhs, rhs = self.ind_gram[r, i][None], self.res_gram[r, i][None]
        return (f"<Ind t{i}, x{r}> = "
                f"{values(lhs, self.e, self.order_h * self.order_g)[0].conjugate()}"
                f" != {values(rhs, self.e, self.order_h)[0].conjugate()}")

    def extensions(self, j):
        """matches[:, j], where Res chi_r = theta_j, for a theta_j invariant
        under a prime index or for each of an array of such j: each must
        have a row chi_r, an extension."""
        exts = self.matches[:, j]
        if not exts.any(axis=0).all():
            raise InternalContradiction(
                "no extension found for an invariant character of prime index")
        return exts


def _products(subs: list[Subgroup]) -> list:
    """Gallagher's products on the normal pairs (G, s) of prime index of
    one group G.  Per s: its invariant thetas, read off the stabilizers, and
    how many extensions chi each has; for the first chi_r of each theta_j
    and psi_i the table of G/H inflated to G, whether the products chi_r *
    psi_i repeat, whether |H| times their sum differs from |H| Ind theta_j,
    and |G| times their norms, numerators at e of shape (thetas, rows of
    G/H, .) and of the dtype of the pair's own bound.  The exact error of a
    pair whose arrays, extensions or quotient cannot be built stands in its
    place.

    One pass modulo the Gram primes for all pairs: G's table is evaluated
    once per prime, a product is a row of it times the evaluated psi_i, its
    norm is interpolated exactly, and the products and sums are compared at
    every embedding, with primes whose product exceeds twice the largest
    pair's bound on every numerator compared.  A product's numerators sum
    2 phi - 1 folded convolution sums of at most phi terms, and a norm's
    sum, per class, phi^3 terms at each of e powers of the power table."""
    found, parts, bounds, seen = [], [], [], []
    for s in subs:
        try:
            pair = _pair(s)
            thetas = (pair.stab == pair.order_g).nonzero()[0]
            exts, qmap = pair.extensions(thetas), quotient(s.parent, s)[1]
            e, og, eq, psi = pair.e, pair.order_g, qmap.group.exponent(), _inflated_table(qmap)
            psi = lift(psi, eq, e, _table_bound(psi, eq))
        except CharcondError as exc:
            found.append(exc)
            continue
        m, phi, top = len(psi), psi.shape[2], _table_bound(pair.tg, e) * _table_bound(psi, e)
        found.append((thetas, exts.sum(axis=0)))
        parts.append((len(found) - 1, pair, thetas, exts.argmax(axis=0), psi))
        bounds.append(max(og * phi ** 3 * top ** 2 * e * _fold_bound(e, e),
                          _table_bound(pair.ind, e) + pair.order_h * m
                          * (2 * phi - 1) * phi * top * _fold_bound(e, e)))
    if not parts:
        return found
    g = parts[0][1]

    def residues(data):
        p, x = data.prime, _evaluate(g.tg, data)
        sizes, out = _residues(g.sizes_g, p), []
        for _, one, thetas, rows, psi in parts:
            prods = x[:, rows, None] * _evaluate(psi, data)[:, None] % p
            diff = one.order_h * prods.sum(axis=2) - _evaluate(one.ind[thetas], data)
            seen.append((prods.transpose(1, 2, 0, 3), (diff % p).any(axis=(0, 2))))
            out.append(_diagonal_values(prods, sizes, data))
        return out
    for k, ((x, _, _, rows, psi), norms) in enumerate(
            zip(parts, _crt(g.e, bounds, residues))):
        mine, n, m = seen[k::len(parts)], len(rows), len(psi)
        keys = row_keys(np.concatenate([y for y, _ in mine], axis=2).reshape(n * m, -1))
        found[x] += (np.array([len(set(keys[y * m:(y + 1) * m])) < m for y in range(n)]),
                     np.logical_or.reduce([d for _, d in mine]), norms)
    return found


def _pairs(subs: list[Subgroup]) -> None:
    """Build the pairs (G, s) of normal subgroups s of one group G that no
    cache holds yet as one `_NormalPairs`, and keep each pair's
    `_NormalPair` as `_pair` would.  Raises nothing: a subgroup whose own
    arrays raise is left out, and a Gram pass that raises keeps no pair, so
    that `_pair` raises the error again within the records that need it."""
    built = []
    for s in subs:
        if _pair.peek(s) is None:
            try:
                built.append((s, _segment(s)))
            except CharcondError:
                pass
    if built:
        try:
            pairs = _NormalPairs(built[0][0].parent, [x for _, x in built])
        except CharcondError:
            return
        for i, (s, _) in enumerate(built):
            _pair.put(s, _NormalPair(pairs, i))


@cached
def _pair(s: Subgroup) -> _NormalPair:
    """The arrays of the normal pair (G, s), built once per subgroup cache
    and kept there by `groups.cached`: the build of `_pairs` on a list of
    one, which raises where `_pairs` leaves the pair out."""
    return _NormalPair(_NormalPairs(s.parent, [_segment(s)]), 0)


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
    return e, [j] + [i for i in pair.orbit[j].nonzero()[0].tolist() if i != j]


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
    return subgroup(s.parent, fixed.nonzero()[0])


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
    rows = pair.extensions(j).nonzero()[0].tolist()
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
