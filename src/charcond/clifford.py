"""Inertia groups, prime-index classification, and large-degree constructions.

For a normal subgroup H of prime index q every irreducible of G either
restricts irreducibly to H or is induced from H; this module computes which,
produces extension witnesses, and builds irreducible characters of degree at
least 2^n from chains of normal subgroups with non-abelian quotients.  Every
classification carries verification data that was checked exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .arith import is_prime
from .characters import (Character, ClassFunction, character_table,
                         conjugate_character, decompose, induce, inflate,
                         inner_product, pointwise_product, restrict,
                         _conj_class_perms, _same_group)
from .errors import (BadChain, IndexNotPrime, InternalContradiction,
                     NotInvariant, NotIrreducible, NotNormal)
from .groups import (FiniteGroup, Subgroup, is_abelian, is_normal, quotient,
                     subgroup)

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


def _require_irreducible(chi: Character) -> None:
    if not isinstance(chi, Character) or not chi.irreducible:
        raise NotIrreducible("operation needs a verified irreducible character")


def _orbit_perm_reps(s: Subgroup) -> list[int]:
    """Representatives g of the distinct class-permutations h -> g h g^-1."""
    perms = _conj_class_perms(s)
    seen = {}
    for g in range(s.parent.order):
        key = perms[g].tobytes()
        if key not in seen:
            seen[key] = g
    return sorted(seen.values())


def inertia_group(s: Subgroup, theta: Character) -> Subgroup:
    """The stabilizer of theta under conjugation by the parent group."""
    if not is_normal(s.parent, s):
        raise NotNormal("inertia groups need a normal subgroup")
    if not _same_group(theta.group, s.as_group()):
        raise NotNormal("character does not live on the subgroup")
    perms = _conj_class_perms(s)
    vals = theta.values
    members = [g for g in range(s.parent.order)
               if all(vals[int(p)] == vals[c] for c, p in enumerate(perms[g]))]
    return subgroup(s.parent, members)


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
    """The distinct conjugates of theta under the parent group, theta first."""
    seen = {theta.values: theta}
    for g in _orbit_perm_reps(s):
        cand = conjugate_character(theta, s, g)
        if cand.values not in seen:
            seen[cand.values] = cand
    rest = sorted((v for k, v in seen.items() if k != theta.values),
                  key=lambda c: c.sort_key())
    return (theta,) + tuple(rest)


def clifford_decomposition(chi: Character, s: Subgroup) -> tuple[int, tuple[Character, ...]]:
    """Restriction of an irreducible to a normal subgroup as e * (conjugate orbit).

    Returns (e, orbit) and verifies the degree and norm bookkeeping exactly:
    chi(1) = e * t * theta(1), <Res chi, Res chi> = e^2 t, e^2 <= |I/H| and
    e^2 t <= |G/H|.
    """
    _require_irreducible(chi)
    if not is_normal(s.parent, s):
        raise NotNormal("Clifford decomposition needs a normal subgroup")
    res = restrict(chi, s)
    table_h = character_table(s.as_group())
    parts = decompose(res, table_h)
    mults = {m for _, m in parts}
    if len(mults) != 1:
        raise InternalContradiction(
            f"restriction constituents have unequal multiplicities {sorted(mults)}")
    e = mults.pop()
    theta = table_h[parts[0][0]]
    orbit = conjugate_orbit(s, theta)
    got = {table_h[i].values for i, _ in parts}
    if got != {c.values for c in orbit}:
        raise InternalContradiction("constituents are not a single conjugate orbit")
    t = len(orbit)
    inert = inertia_group(s, theta)
    over = inert.order // s.order
    norm = inner_product(res, res)
    if chi.degree != e * t * theta.degree:
        raise InternalContradiction("degree bookkeeping chi(1) = e t theta(1) fails")
    if norm != e * e * t:
        raise InternalContradiction("<Res chi, Res chi> != e^2 t")
    if e * e > over or e * e * t > s.index:
        raise InternalContradiction("Clifford e-bounds violated")
    return e, orbit


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
    _require_irreducible(chi)
    q = s.index
    if not is_prime(q):
        raise IndexNotPrime(f"index {q} is not prime")
    res = restrict(chi, s)
    norm = inner_product(res, res)
    if norm == 1:
        theta = Character(res.group, res.values)
        theta.irreducible = True  # the exact norm check above
        checks = {
            "restriction_irreducible": True,
            "restriction_matches": restrict(chi, s) == theta,
            "inertia_whole_group": inertia_group(s, theta).order == s.parent.order,
            "induced_differs": induce(theta, s) != chi,
        }
        return Classification(ClassificationKind.RESTRICTED, chi, theta,
                              1, 1, (theta,), checks)
    e, orbit = clifford_decomposition(chi, s)
    theta = orbit[0]
    checks = {
        "orbit_size_q": len(orbit) == q,
        "multiplicity_one": e == 1,
        "induced_matches": induce(theta, s) == chi,
        "inertia_is_subgroup": inertia_group(s, theta).elements == s.elements,
        "restriction_reducible": norm == q,
    }
    if not all(checks.values()):
        raise InternalContradiction(f"induced-case verification failed: {checks}")
    return Classification(ClassificationKind.INDUCED, chi, theta,
                          1, q, orbit, checks)


def find_extensions(theta: Character, s: Subgroup) -> tuple[Character, ...]:
    """All irreducibles of the parent group restricting to theta, table order."""
    _require_irreducible(theta)
    if not is_prime(s.index):
        raise IndexNotPrime(f"index {s.index} is not prime")
    if inertia_group(s, theta).order != s.parent.order:
        raise NotInvariant("character is not invariant in the parent group")
    table = character_table(s.parent)
    out = tuple(chi for chi in table if restrict(chi, s) == theta)
    if not out:
        raise InternalContradiction(
            "no extension found for an invariant character of prime index")
    return out


def find_extension(theta: Character, s: Subgroup) -> Character:
    """The canonical-first extension of an invariant theta under prime index."""
    return find_extensions(theta, s)[0]


@dataclass(frozen=True)
class NormalChain:
    """A chain 1 = N_0 <= ... <= N_n = G, each normal in G, with every
    quotient N_i / N_(i-1) non-abelian."""

    group: FiniteGroup
    subgroups: tuple[Subgroup, ...]

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
        for prev, cur in zip(subs, subs[1:]):
            if not set(prev.elements) <= set(cur.elements):
                raise BadChain("chain is not ascending")
            if cur.order == prev.order:
                raise BadChain("chain has a repeated term")
            step_group = cur.as_group()
            inner = _reindex_subgroup(prev, cur)
            q, _ = quotient(step_group, inner)
            if is_abelian(q):
                raise BadChain(
                    f"quotient of orders {cur.order}/{prev.order} is abelian")

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


def _max_degree_constituent(fn: ClassFunction, table) -> tuple[Character, int]:
    parts = decompose(fn, table)
    best = max(parts, key=lambda im: (table[im[0]].degree, -im[0]))
    return table[best[0]], best[1]


def promote_degree(theta: Character, s: Subgroup) -> Character:
    """An irreducible of the parent with degree >= theta(1), from Ind theta."""
    _require_irreducible(theta)
    if not is_normal(s.parent, s):
        raise NotNormal("promotion needs a normal subgroup")
    table = character_table(s.parent)
    chi, _ = _max_degree_constituent(induce(theta, s), table)
    if chi.degree < theta.degree:
        raise InternalContradiction("induced constituent lost degree")
    return chi


def construct_large_degree(chain: NormalChain) -> Character:
    """An irreducible character of degree at least 2^(chain length).

    Walks the chain, at each step taking the largest-degree constituent of the
    induced character.  When that constituent is a plain extension (e = t = 1)
    the degree has not grown, and multiplying by an inflated non-linear
    irreducible of the quotient restores growth while staying irreducible.
    """
    subs = chain.subgroups
    step_group = subs[1].as_group()
    table = character_table(step_group)
    psi = _pick_max_row(table)
    if psi.degree < 2:
        raise InternalContradiction("non-abelian bottom group has no degree >= 2")
    for m in range(1, chain.length):
        outer = subs[m + 1]
        outer_group = outer.as_group()
        inner = _reindex_subgroup(subs[m], outer)
        table_outer = character_table(outer_group)
        ind = induce(psi, inner)
        cand, e = _max_degree_constituent(ind, table_outer)
        t = len(conjugate_orbit(inner, psi))
        if e * t >= 2:
            psi = cand
        else:
            q, qmap = quotient(outer_group, inner)
            qtable = character_table(q)
            beta = next(row for row in qtable if row.degree >= 2)
            prod = pointwise_product(cand, inflate(beta, qmap))
            psi = Character(prod.group, prod.values, irreducible=True)
        if psi.degree < 2 ** (m + 1):
            raise InternalContradiction(
                f"degree {psi.degree} fell below 2^{m + 1} during the walk")
    return Character(chain.group, psi.values, irreducible=True)


def _pick_max_row(table) -> Character:
    best = table[0]
    for row in table:
        if row.degree > best.degree:
            best = row
    return best
