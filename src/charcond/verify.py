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
from .cyclotomic import scaled
from .conductor import (GaloisContext, RamificationFiltration, artin_conductor,
                        conductor_exponent, induced_conductor_norm,
                        unramified_triviality, verify_conductor_discriminant)
from .errors import CharcondError, InvalidData
from .groups import (FiniteGroup, Subgroup, normal_subgroups,
                     prime_index_normal_subgroups, product_chain, quotient,
                     row_keys, subgroup, trivial_subgroup)

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
        self.checks.append(CheckRecord(identity, inputs, passed, detail))

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


def _pair_name(g: FiniteGroup, s: Subgroup) -> str:
    return f"G={g.name or g.order}, |H|={s.order}"


def _proper_normal_pairs(cat: Catalog, max_order: int, prime_only: bool):
    for name, g in cat.groups_up_to(max_order):
        subs = (prime_index_normal_subgroups(g) if prime_only
                else normal_subgroups(g))
        for s in subs:
            if s.order < g.order:
                yield g, s


def suite_clifford(cat: Catalog | None = None,
                   max_order: int = DEFAULT_MAX_ORDER) -> VerificationReport:
    """Restriction/induction identities over every normal pair in the catalog."""
    cat = cat or default_catalog()
    rep = VerificationReport("clifford")
    for g, s in _proper_normal_pairs(cat, max_order, prime_only=False):
        ok_a = ok_b = ok_c = True
        detail = ""
        try:
            pair, conj = _cached(s, _NormalPair), _cached(s, _Conjugation)
            # Res Ind theta by the gather; the orbit sums by the row action
            orbit_sums = (conj.orbit.astype(np.int64)
                          @ pair.th.reshape(len(pair.th), -1)).reshape(pair.th.shape)
            for i, ind_norm in enumerate(pair.induced_norms()):
                deg = int(pair.th[i, 0, 0])
                ratio = int(conj.stab[i]) // s.order
                if not pair.is_res_ind(i, scaled(orbit_sums[i], ratio)):
                    ok_a = False
                    detail = f"Res Ind theta mismatch for theta degree {deg}"
                if ind_norm != ratio:
                    ok_b = False
                    detail = f"<Ind,Ind> = {ind_norm}, expected {ratio}"
                if (ind_norm == 1) != conj.is_h[i]:
                    ok_b = False
                    detail = "irreducibility of Ind theta disagrees with I=H"
                if pair.induced_degree(i) != s.index * deg:
                    ok_b = False
                    detail = "degree of Ind theta is not [G:H]*theta(1)"
            for r in range(len(pair.tg)):
                _clifford_row(s, r)
        except CharcondError as exc:
            ok_c = False
            detail = str(exc)
        rep.add("clifford: Res Ind theta = |I/H| sum of conjugates",
                _pair_name(g, s), ok_a, detail if not ok_a else "")
        rep.add("clifford: <Ind theta, Ind theta> = |I/H| and degree bookkeeping",
                _pair_name(g, s), ok_b, detail if not ok_b else "")
        rep.add("clifford: Res chi = e * orbit with e-bounds",
                _pair_name(g, s), ok_c, detail if not ok_c else "")
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
                _pair_name(g, s), not bad,
                f"violations {bad}" if bad else "")
    return rep


def suite_classification(cat: Catalog | None = None,
                         max_order: int = DEFAULT_MAX_ORDER) -> VerificationReport:
    """Every irreducible is restricted or induced, exclusively."""
    cat = cat or default_catalog()
    rep = VerificationReport("classification")
    for g, s in _proper_normal_pairs(cat, max_order, prime_only=True):
        k = len(_table_nums(g))
        ok = True
        detail = ""
        counts = {ClassificationKind.RESTRICTED: 0, ClassificationKind.INDUCED: 0}
        try:
            pair = _cached(s, _NormalPair)
            for r in range(k):
                kind, j, _, _, checks = _classify_row(s, r)
                counts[kind] += 1
                if not all(checks.values()):
                    ok = False
                    detail = ("unverified classification for degree "
                              f"{int(pair.tg[r, 0, 0])}")
                # the kind came from <Res chi, Res chi>; irreducibility and
                # Ind theta = chi are read here off the multiplicities and
                # the induced degree: by Frobenius, <Ind theta, chi> = 1
                mults = pair.multiplicities(r)
                res_irr = sum(mults) == 1
                ind_match = (mults[j] == 1
                             and pair.induced_degree(j) == pair.tg[r, 0, 0])
                if kind == ClassificationKind.RESTRICTED and not res_irr:
                    ok = False
                    detail = "restricted case without irreducible restriction"
                if kind == ClassificationKind.INDUCED and res_irr:
                    ok = False
                    detail = "induced case with irreducible restriction"
                if kind == ClassificationKind.INDUCED and not ind_match:
                    ok = False
                    detail = "induced case where Ind theta != chi"
        except CharcondError as exc:
            ok = False
            detail = str(exc)
        total = counts[ClassificationKind.RESTRICTED] + counts[ClassificationKind.INDUCED]
        if total != k:
            ok = False
            detail = "classification is not total"
        rep.add("classification: totality and exclusivity under prime index",
                _pair_name(g, s), ok, detail)
    return rep


def suite_gallagher(cat: Catalog | None = None,
                    max_order: int = DEFAULT_MAX_ORDER) -> VerificationReport:
    """Invariant characters extend, and Ind theta = sum of chi * psi_i exactly."""
    cat = cat or default_catalog()
    rep = VerificationReport("gallagher")
    for g, s in _proper_normal_pairs(cat, max_order, prime_only=True):
        _, qmap = quotient(g, s)
        ok = True
        detail = ""
        invariant = 0
        try:
            pair = _cached(s, _NormalPair)
            thetas = np.flatnonzero(_cached(s, _Conjugation).stab == g.order)
            exts = []
            for j in thetas.tolist():
                invariant += 1
                exts.append(pair.extensions(j))
            # the trivial theta is invariant, so there is an extension chi;
            # every chi * psi_i by one multiply, their norms by one gram
            products, norms = pair.products([rows[0] for rows in exts], qmap)
            for x, j in enumerate(thetas.tolist()):
                if len(set(row_keys(products[x]))) != len(products[x]):
                    ok = False
                    detail = "products chi * psi_i are not distinct"
                if not pair.is_induced(j, products[x].sum(axis=0)):
                    ok = False
                    detail = "sum of chi * psi_i differs from Ind theta"
                if any(got != 1 for got in norms[x]):
                    ok = False
                    detail = "a product chi * psi_i is not irreducible"
                if len(exts[x]) != len(products[x]):
                    ok = False
                    detail = f"{len(exts[x])} extensions, expected {len(products[x])}"
        except CharcondError as exc:
            ok = False
            detail = str(exc)
        rep.add("gallagher: extensions exist and exhaust Ind theta",
                f"{_pair_name(g, s)}, invariant thetas={invariant}", ok, detail)
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
        ok = phi.degree >= want and phi.degree <= table_max
        rep.add(f"degrees: chain of length {copies} gives degree >= {want}",
                f"G order {chain.group.order}", ok,
                "" if ok else f"degree {phi.degree}, table max {table_max}")
        rep.add(f"degrees: chain degree consistent with table maximum {table_max}",
                f"G order {chain.group.order}", phi.degree <= table_max,
                "" if phi.degree <= table_max else f"degree {phi.degree}")
        # composite property: chain of length L inside G certifies a character
        # of degree exceeding 2^((n-1)/2) for n = 2L
        n = 2 * copies
        strict = phi.degree ** 2 > 2 ** (n - 1)
        rep.add(f"degrees: length-{copies} chain exceeds 2^(({n}-1)/2)",
                f"G order {chain.group.order}", strict,
                "" if strict else f"degree {phi.degree}")
    two = _s3_chain(cat, 2)
    left = two.subgroups[1]
    theta = next(r for r in character_table(left.as_group()) if r.degree == 2)
    promoted = promote_degree(theta, left)
    rep.add("degrees: promotion keeps degree at least theta(1)",
            "theta degree 2 in order-36 group", promoted.degree >= 2,
            "" if promoted.degree >= 2 else f"degree {promoted.degree}")
    return rep


def _random_character(table, rng: random.Random) -> ClassFunction:
    total = None
    for row in table:
        m = rng.randint(0, 3)
        if not m:
            continue
        part = row.scale(m)
        total = part if total is None else total + part
    if total is None:
        row = table[0]
        total = ClassFunction._make(table.group, row.e, row.nums, row.den)
    return total


def suite_conductor(cat: Catalog | None = None,
                    max_order: int = DEFAULT_MAX_ORDER) -> VerificationReport:
    """Conductor oracle, additivity, truncation and conjugation invariance."""
    cat = cat or default_catalog()
    rep = VerificationReport("conductor")
    rng = random.Random(_RANDOM_SEED)
    for name in cat.context_names():
        ctx = cat.context(name)
        table = character_table(ctx.group)
        if ctx.disc is not None:
            ok = verify_conductor_discriminant(ctx, table, ctx.disc)
            rep.add("conductor: conductor-discriminant product equals disc",
                    f"context {name}, disc {ctx.disc}", ok,
                    "" if ok else "product mismatch")
        ok_add = True
        detail = ""
        for _ in range(_ADDITIVITY_TRIALS):
            phi = _random_character(table, rng)
            psi = _random_character(table, rng)
            for filt in ctx.filtrations:
                lhs = conductor_exponent(phi + psi, filt)
                rhs = conductor_exponent(phi, filt) + conductor_exponent(psi, filt)
                if lhs != rhs:
                    ok_add = False
                    detail = f"f(phi+psi)={lhs} vs {rhs} at prime {filt.prime}"
        rep.add("conductor: exponents are additive in the character",
                f"context {name}, {_ADDITIVITY_TRIALS} random sums", ok_add, detail)
        ok_trunc = True
        for filt in ctx.filtrations:
            padded = RamificationFiltration(
                filt.prime, filt.residue_norm,
                filt.groups + (trivial_subgroup(ctx.group),
                               trivial_subgroup(ctx.group)))
            for chi in table:
                if conductor_exponent(chi, filt) != conductor_exponent(chi, padded):
                    ok_trunc = False
        rep.add("conductor: appending trivial groups never changes exponents",
                f"context {name}", ok_trunc, "")
        ok_conj = True
        for gval in range(ctx.group.order):
            for filt in ctx.filtrations:
                conj_groups = tuple(
                    subgroup(ctx.group,
                             [ctx.group.conj_elem(gval, h) for h in sub.elements])
                    for sub in filt.groups)
                conj_filt = RamificationFiltration(filt.prime, filt.residue_norm,
                                                   conj_groups)
                for chi in table:
                    if conductor_exponent(chi, filt) != conductor_exponent(chi, conj_filt):
                        ok_conj = False
        rep.add("conductor: exponents invariant under conjugating the filtration",
                f"context {name}", ok_conj, "")
        triv = trivial_subgroup(ctx.group)
        theta = character_table(triv.as_group())[0]
        ind = induce(theta, triv)
        if ctx.disc is not None:
            got = artin_conductor(ind, ctx).norm
            want = induced_conductor_norm(1, 1, ctx.disc)
            rep.add("conductor: induced conductor norm matches disc^theta(1) * N",
                    f"context {name}", got == want,
                    "" if got == want else f"{got} != {want}")
    empty = GaloisContext(cat.group("C2"), (), name="unramified")
    ok_unram = unramified_triviality(empty)
    for chi in character_table(empty.group):
        if artin_conductor(chi, empty).norm != 1:
            ok_unram = False
    rep.add("conductor: unramified context forces trivial conductors",
            "context with no filtrations", ok_unram, "")
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
        table = character_table(g)
        ok = True
        detail = ""
        try:
            table.validate()
        except CharcondError as exc:
            ok = False
            detail = str(exc)
        rep.add("tables: exact row and column orthogonality, sum of squares",
                f"G={name}", ok, detail)
        for s in normal_subgroups(g):
            if s.order == g.order:
                continue
            bad = _cached(s, _NormalPair).frobenius()
            detail = ""
            if bad:
                i, j, lhs, rhs = bad[-1]
                detail = f"<Ind t{i}, x{j}> = {lhs} != {rhs}"
            rep.add("tables: Frobenius reciprocity",
                    _pair_name(g, s), not bad, detail)
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
