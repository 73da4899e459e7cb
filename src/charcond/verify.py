"""Catalog-wide verification sweeps for the classification and conductor laws.

Each suite walks the builtin catalog up to an order cap and checks exact
identities; a report records one line per (identity, group, subgroup) with
inner case counts and carries the offending exact values on failure.  The
clifford, dichotomy, classification, gallagher and Frobenius checks read whole
tables per normal pair (G, H): the arrays of `clifford._NormalPair` and
`clifford._Conjugation`, built once per subgroup.  The two sides of each
identity come by different routes: Res Ind theta by the gather of the induced
table, the orbit sums by the row permutations; <Ind theta, Ind theta> by a
Gram product, |I/H| by the stabilizer; e and the constituents by the
multiplicity Gram product, the orbit by the permutations.

The conductor checks work on arrays as well.  The random characters phi, psi
of the additivity trials are one multiplicity matrix times the table.  The
conductor-discriminant product, the induced conductor and f(phi + psi) for
all trials at once come from a filtration's count matrix
(`conductor.conductor_exponents`); f(phi) + f(psi), and the exponents on the
filtration padded with trivial groups, from `conductor_exponent`, which counts
each G_j itself; conjugation invariance compares the count-matrix route on
the filtration with the count matrices of all its conjugates, gathered at
once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import SUITE_NAMES
from .catalog import Catalog, default_catalog
from .characters import ClassFunction, character_table, induce, _table_nums
from .clifford import (ClassificationKind, NormalChain, construct_large_degree,
                       promote_degree, _Conjugation, _NormalPair, _cached,
                       _classify_row, _clifford_row)
from .cyclotomic import _matmul, scaled
from .conductor import (GaloisContext, RamificationFiltration, artin_conductor,
                        conductor_exponent, conductor_exponents,
                        conductors, induced_conductor_norm,
                        unramified_triviality, verify_conductor_discriminant,
                        _count_matrix)
from .errors import CharcondError, InvalidData
from .groups import (FiniteGroup, Subgroup, normal_subgroups,
                     prime_index_normal_subgroups, product_chain, quotient,
                     row_keys, trivial_subgroup)

DEFAULT_MAX_ORDER = 24
_RANDOM_SEED = 20230923
_ADDITIVITY_TRIALS = 100


@dataclass
class CheckRecord:
    identity: str
    inputs: str
    passed: bool
    detail: str = ""

    def to_json_dict(self) -> dict:
        out = {"identity": self.identity, "inputs": self.inputs,
               "pass": self.passed}
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class VerificationReport:
    suite: str
    checks: list[CheckRecord] = field(default_factory=list)

    def add(self, identity: str, inputs: str, passed: bool,
            detail: str = "") -> None:
        """Record one check; the detail is kept for a failed check only."""
        self.checks.append(CheckRecord(identity, inputs, passed,
                                       "" if passed else detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def counts(self) -> tuple[int, int, int]:
        fails = sum(1 for c in self.checks if not c.passed)
        return len(self.checks), len(self.checks) - fails, fails

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)

    def to_json_dict(self) -> dict:
        total, ok, bad = self.counts
        return {"suite": self.suite,
                "checks": [c.to_json_dict() for c in self.checks],
                "summary": {"total": total, "passed": ok, "failed": bad}}

    def render_text(self) -> str:
        lines = [f"suite {self.suite}"]
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            line = f"  [{mark}] {c.identity}  ({c.inputs})"
            if c.detail and not c.passed:
                line += f"  {c.detail}"
            lines.append(line)
        total, ok, bad = self.counts
        lines.append(f"summary: {ok}/{total} passed, {bad} failed")
        return "\n".join(lines)


def _attempt(check, *args) -> tuple[bool, str]:
    """(passed, detail) of a check that returns its failure detail, "" or
    None when it holds; an exact error fails it with its message."""
    try:
        detail = check(*args) or ""
    except CharcondError as exc:
        return False, str(exc)
    return not detail, detail


def _pair_name(g: FiniteGroup, s: Subgroup) -> str:
    return f"G={g.name or g.order}, |H|={s.order}"


def _proper_normal_pairs(cat: Catalog, max_order: int, prime_only: bool):
    for name, g in cat.groups_up_to(max_order):
        subs = (prime_index_normal_subgroups(g) if prime_only
                else normal_subgroups(g))
        for s in subs:
            if s.order < g.order:
                yield g, s


_CLIFFORD_IDENTITIES = (
    "clifford: Res Ind theta = |I/H| sum of conjugates",
    "clifford: <Ind theta, Ind theta> = |I/H| and degree bookkeeping",
    "clifford: Res chi = e * orbit with e-bounds")


def suite_clifford(cat: Catalog | None = None,
                   max_order: int = DEFAULT_MAX_ORDER) -> VerificationReport:
    """Restriction/induction identities over every normal pair in the catalog."""
    cat = cat or default_catalog()
    rep = VerificationReport("clifford")
    for g, s in _proper_normal_pairs(cat, max_order, prime_only=False):
        fails = []  # (record, detail); a failed record shows the last detail
        try:
            pair, conj = _cached(s, _NormalPair), _cached(s, _Conjugation)
            # Res Ind theta by the gather; the orbit sums by the row action
            orbit_sums = (conj.orbit.astype(np.int64)
                          @ pair.th.reshape(len(pair.th), -1)).reshape(pair.th.shape)
            for i, ind_norm in enumerate(pair.induced_norms()):
                deg = int(pair.th[i, 0, 0])
                ratio = int(conj.stab[i]) // s.order
                if not pair.is_res_ind(i, scaled(orbit_sums[i], ratio)):
                    fails.append((0, f"Res Ind theta mismatch for theta degree {deg}"))
                if ind_norm != ratio:
                    fails.append((1, f"<Ind,Ind> = {ind_norm}, expected {ratio}"))
                if (ind_norm == 1) != conj.is_h[i]:
                    fails.append((1, "irreducibility of Ind theta disagrees with I=H"))
                if pair.induced_degree(i) != s.index * deg:
                    fails.append((1, "degree of Ind theta is not [G:H]*theta(1)"))
            for r in range(len(pair.tg)):
                _clifford_row(s, r)
        except CharcondError as exc:
            fails.append((2, str(exc)))
        for record, identity in enumerate(_CLIFFORD_IDENTITIES):
            rep.add(identity, _pair_name(g, s), all(r != record for r, _ in fails),
                    fails[-1][1] if fails else "")
    return rep


def suite_dichotomy(cat: Catalog | None = None,
                    max_order: int = DEFAULT_MAX_ORDER) -> VerificationReport:
    """Inertia groups under prime index are all-or-nothing."""
    cat = cat or default_catalog()
    rep = VerificationReport("dichotomy")
    for g, s in _proper_normal_pairs(cat, max_order, prime_only=True):
        conj = _cached(s, _Conjugation)
        degrees = _table_nums(s.as_group())[:, 0, 0].tolist()
        bad = [(deg, order) for deg, order, is_h
               in zip(degrees, conj.stab.tolist(), conj.is_h)
               if order != g.order and not is_h]
        rep.add("dichotomy: I(theta) is G or H under prime index",
                _pair_name(g, s), not bad, f"violations {bad}")
    return rep


def suite_classification(cat: Catalog | None = None,
                         max_order: int = DEFAULT_MAX_ORDER) -> VerificationReport:
    """Every irreducible is restricted or induced, exclusively."""
    cat = cat or default_catalog()
    rep = VerificationReport("classification")
    for g, s in _proper_normal_pairs(cat, max_order, prime_only=True):
        k = len(_table_nums(g))
        fails = []
        counts = {ClassificationKind.RESTRICTED: 0, ClassificationKind.INDUCED: 0}
        try:
            pair = _cached(s, _NormalPair)
            for r in range(k):
                kind, j, _, _, checks = _classify_row(s, r)
                counts[kind] += 1
                if not all(checks.values()):
                    fails.append("unverified classification for degree "
                                 f"{int(pair.tg[r, 0, 0])}")
                # the kind came from <Res chi, Res chi>; irreducibility and
                # Ind theta = chi are read here off the multiplicities and
                # the induced degree: by Frobenius, <Ind theta, chi> = 1
                mults = pair.multiplicities(r)
                res_irr = sum(mults) == 1
                ind_match = (mults[j] == 1
                             and pair.induced_degree(j) == pair.tg[r, 0, 0])
                if kind == ClassificationKind.RESTRICTED and not res_irr:
                    fails.append("restricted case without irreducible restriction")
                if kind == ClassificationKind.INDUCED and res_irr:
                    fails.append("induced case with irreducible restriction")
                if kind == ClassificationKind.INDUCED and not ind_match:
                    fails.append("induced case where Ind theta != chi")
        except CharcondError as exc:
            fails.append(str(exc))
        if sum(counts.values()) != k:
            fails.append("classification is not total")
        rep.add("classification: totality and exclusivity under prime index",
                _pair_name(g, s), not fails, fails[-1] if fails else "")
    return rep


def suite_gallagher(cat: Catalog | None = None,
                    max_order: int = DEFAULT_MAX_ORDER) -> VerificationReport:
    """Invariant characters extend, and Ind theta = sum of chi * psi_i exactly."""
    cat = cat or default_catalog()
    rep = VerificationReport("gallagher")
    for g, s in _proper_normal_pairs(cat, max_order, prime_only=True):
        _, qmap = quotient(g, s)
        fails = []
        invariant = 0
        try:
            pair = _cached(s, _NormalPair)
            thetas = np.flatnonzero(_cached(s, _Conjugation).stab == g.order)
            invariant = len(thetas)
            exts = [pair.extensions(j) for j in thetas.tolist()]
            # the trivial theta is invariant, so there is an extension chi;
            # every chi * psi_i by one multiply, their norms by one gram
            products, norms = pair.products([rows[0] for rows in exts], qmap)
            for x, j in enumerate(thetas.tolist()):
                if len(set(row_keys(products[x]))) != len(products[x]):
                    fails.append("products chi * psi_i are not distinct")
                if not pair.is_induced(j, products[x].sum(axis=0)):
                    fails.append("sum of chi * psi_i differs from Ind theta")
                if any(got != 1 for got in norms[x]):
                    fails.append("a product chi * psi_i is not irreducible")
                if len(exts[x]) != len(products[x]):
                    fails.append(
                        f"{len(exts[x])} extensions, expected {len(products[x])}")
        except CharcondError as exc:
            fails.append(str(exc))
        rep.add("gallagher: extensions exist and exhaust Ind theta",
                f"{_pair_name(g, s)}, invariant thetas={invariant}", not fails,
                fails[-1] if fails else "")
    return rep


def _s3_chain(cat: Catalog, copies: int) -> NormalChain:
    s3 = cat.group("S3")
    prod, chain = product_chain([s3] * copies)
    return NormalChain(prod, tuple(chain))


def suite_degrees(cat: Catalog | None = None,
                  max_order: int = DEFAULT_MAX_ORDER) -> VerificationReport:
    """Degree growth along non-abelian chains, checked against full tables."""
    cat = cat or default_catalog()
    rep = VerificationReport("degrees")
    for copies in (1, 2, 3):
        chain = _s3_chain(cat, copies)
        phi = construct_large_degree(chain)
        want = 2 ** copies
        table_max = max(character_table(chain.group).degrees())
        rep.add(f"degrees: chain of length {copies} gives degree >= {want}",
                f"G order {chain.group.order}", want <= phi.degree <= table_max,
                f"degree {phi.degree}, table max {table_max}")
        rep.add(f"degrees: chain degree consistent with table maximum {table_max}",
                f"G order {chain.group.order}", phi.degree <= table_max,
                f"degree {phi.degree}")
        # composite property: chain of length L inside G certifies a character
        # of degree exceeding 2^((n-1)/2) for n = 2L
        n = 2 * copies
        rep.add(f"degrees: length-{copies} chain exceeds 2^(({n}-1)/2)",
                f"G order {chain.group.order}", phi.degree ** 2 > 2 ** (n - 1),
                f"degree {phi.degree}")
    two = _s3_chain(cat, 2)
    left = two.subgroups[1]
    theta = next(r for r in character_table(left.as_group()) if r.degree == 2)
    promoted = promote_degree(theta, left)
    rep.add("degrees: promotion keeps degree at least theta(1)",
            "theta degree 2 in order-36 group", promoted.degree >= 2,
            f"degree {promoted.degree}")
    return rep


def _random_characters(nums: np.ndarray, rng: random.Random) -> np.ndarray:
    """Numerators of the random characters phi, psi of the additivity trials,
    rows (phi_0, psi_0, phi_1, ...), from a table's numerators: one
    `rng.randint(0, 3)` per irreducible in table order gives its multiplicity,
    and a character where every draw is 0 is the trivial one."""
    k = len(nums)
    mults = np.array([[rng.randint(0, 3) for _ in range(k)]
                      for _ in range(2 * _ADDITIVITY_TRIALS)], dtype=np.int64)
    mults[~mults.any(axis=1), 0] = 1
    return _matmul(mults, nums.reshape(k, -1)).reshape(-1, *nums.shape[1:])


def _discriminant(ctx: GaloisContext, table) -> str:
    ok = verify_conductor_discriminant(ctx, table, ctx.disc)
    return "" if ok else "product mismatch"


def _additivity(ctx: GaloisContext, chars: np.ndarray) -> str:
    """f(phi + psi) by the matrix route for all pairs at once, against
    f(phi) + f(psi) by `conductor_exponent` one character at a time."""
    g, e = ctx.group, ctx.group.exponent()
    detail = ""
    for filt in ctx.filtrations:
        lhs = conductor_exponents(filt, chars[0::2] + chars[1::2])
        for got, phi, psi in zip(lhs.tolist(), chars[0::2], chars[1::2]):
            want = sum(conductor_exponent(ClassFunction._make(g, e, a, 1), filt)
                       for a in (phi, psi))
            if got != want:
                detail = f"f(phi+psi)={got} vs {want} at prime {filt.prime}"
    return detail


def _truncation(ctx: GaloisContext, table) -> str:
    """The table's exponents by the matrix route, against `conductor_exponent`
    once two trivial groups are appended to the filtration."""
    triv = trivial_subgroup(ctx.group)
    for filt in ctx.filtrations:
        padded = RamificationFiltration(filt.prime, filt.residue_norm,
                                        filt.groups + (triv, triv))
        want = conductor_exponents(filt, _table_nums(ctx.group)).tolist()
        got = [conductor_exponent(chi, padded) for chi in table]
        if got != want:
            return f"padded exponents {got} vs {want} at prime {filt.prime}"
    return ""


def _conjugation(ctx: GaloisContext) -> str:
    """The table's exponents by the matrix route, on the filtration and on
    the count matrices of all its conjugates x G_j x^-1 from one gather."""
    g, nums = ctx.group, _table_nums(ctx.group)
    for filt in filter(lambda filt: filt.groups, ctx.filtrations):
        counts = _count_matrix(filt, lambda h: g.mul[g.mul[:, h], g.inv[:, None]])
        got = conductor_exponents(filt, nums, counts=counts)
        want = conductor_exponents(filt, nums)
        moved = np.flatnonzero((got != want).any(axis=1))
        if len(moved):
            return (f"conjugating by {moved[0]} gives exponents "
                    f"{got[moved[0]].tolist()}, not {want.tolist()}")
    return ""


def _induced_norm(ctx: GaloisContext) -> str:
    triv = trivial_subgroup(ctx.group)
    ind = induce(character_table(triv.as_group())[0], triv)
    got, want = artin_conductor(ind, ctx).norm, induced_conductor_norm(1, 1, ctx.disc)
    return "" if got == want else f"{got} != {want}"


def suite_conductor(cat: Catalog | None = None,
                    max_order: int = DEFAULT_MAX_ORDER) -> VerificationReport:
    """Conductor oracle, additivity, truncation and conjugation invariance."""
    cat = cat or default_catalog()
    rep = VerificationReport("conductor")
    rng = random.Random(_RANDOM_SEED)
    for name in cat.context_names():
        ctx = cat.context(name)
        table = character_table(ctx.group)
        chars = _random_characters(_table_nums(ctx.group), rng)
        here = f"context {name}"
        if ctx.disc is not None:
            rep.add("conductor: conductor-discriminant product equals disc",
                    f"{here}, disc {ctx.disc}", *_attempt(_discriminant, ctx, table))
        rep.add("conductor: exponents are additive in the character",
                f"{here}, {_ADDITIVITY_TRIALS} random sums",
                *_attempt(_additivity, ctx, chars))
        rep.add("conductor: appending trivial groups never changes exponents",
                here, *_attempt(_truncation, ctx, table))
        rep.add("conductor: exponents invariant under conjugating the filtration",
                here, *_attempt(_conjugation, ctx))
        if ctx.disc is not None:
            rep.add("conductor: induced conductor norm matches disc^theta(1) * N",
                    here, *_attempt(_induced_norm, ctx))
    empty = GaloisContext(cat.group("C2"), (), name="unramified")
    trivial = conductors(empty, character_table(empty.group))
    rep.add("conductor: unramified context forces trivial conductors",
            "context with no filtrations", unramified_triviality(empty)
            and all(fc.norm == 1 for fc in trivial))
    for name in cat.context_names():
        if unramified_triviality(cat.context(name)):
            rep.add("conductor: ramified context not reported unramified",
                    f"context {name}", False, "")
    return rep


def suite_tables(cat: Catalog | None = None,
                 max_order: int = DEFAULT_MAX_ORDER) -> VerificationReport:
    """Orthogonality, degree sums, and Frobenius reciprocity on normal pairs."""
    cat = cat or default_catalog()
    rep = VerificationReport("tables")
    for name, g in cat.groups_up_to(max_order):
        rep.add("tables: exact row and column orthogonality, sum of squares",
                f"G={name}", *_attempt(character_table(g).validate))
        for s in normal_subgroups(g):
            if s.order == g.order:
                continue
            bad = _cached(s, _NormalPair).frobenius()
            rep.add("tables: Frobenius reciprocity", _pair_name(g, s), not bad,
                    "<Ind t{}, x{}> = {} != {}".format(*bad[-1]) if bad else "")
    return rep


_SUITES = {
    "clifford": suite_clifford,
    "gallagher": suite_gallagher,
    "dichotomy": suite_dichotomy,
    "classification": suite_classification,
    "degrees": suite_degrees,
    "conductor": suite_conductor,
    "tables": suite_tables,
}


def run_suite(name: str, cat: Catalog | None = None,
              max_order: int = DEFAULT_MAX_ORDER) -> VerificationReport:
    """Run one named suite, or all of them merged under suite name 'all'."""
    cat = cat or default_catalog()
    if name == "all":
        rep = VerificationReport("all")
        for key in SUITE_NAMES[:-1]:
            rep.extend(_SUITES[key](cat, max_order))
        return rep
    if name not in _SUITES:
        raise InvalidData(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return _SUITES[name](cat, max_order)
