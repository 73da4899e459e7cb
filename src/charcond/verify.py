"""Catalog-wide verification sweeps for the classification and conductor laws.

Each suite walks every applicable (group, subgroup, character) combination in
the builtin catalog up to an order cap and checks the exact identities; a
report records one line per (identity, group, subgroup) with inner case counts
and carries the offending exact values on failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import SUITE_NAMES
from .catalog import Catalog, default_catalog
from .characters import (ClassFunction, character_table, induce, inflate,
                         inner_product_matrix, norm, pointwise_product,
                         restrict)
from .clifford import (ClassificationKind, NormalChain, classify_irreducible,
                       clifford_decomposition, conjugate_orbit,
                       construct_large_degree, find_extensions, inertia_group,
                       promote_degree)
from .conductor import (GaloisContext, RamificationFiltration, artin_conductor,
                        conductor_exponent, induced_conductor_norm,
                        unramified_triviality, verify_conductor_discriminant)
from .errors import CharcondError, InvalidData
from .groups import (FiniteGroup, Subgroup, normal_subgroups,
                     prime_index_normal_subgroups, product_chain, quotient,
                     subgroup, trivial_subgroup)

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

    @classmethod
    def from_json_dict(cls, data: dict) -> "CheckRecord":
        return cls(identity=data["identity"], inputs=data["inputs"],
                   passed=data["pass"], detail=data.get("detail", ""))


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

    @classmethod
    def from_json_dict(cls, data: dict) -> "VerificationReport":
        rep = cls(suite=data["suite"])
        rep.checks = [CheckRecord.from_json_dict(c) for c in data["checks"]]
        return rep

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
        table_g = character_table(g)
        table_h = character_table(s.as_group())
        ok_a = ok_b = ok_c = True
        detail = ""
        try:
            for theta in table_h:
                inert = inertia_group(s, theta)
                ratio = inert.order // s.order
                orbit = conjugate_orbit(s, theta)
                ind = induce(theta, s)
                lhs = restrict(ind, s)
                rhs = orbit[0].scale(0)
                for member in orbit:
                    rhs = rhs + member
                rhs = rhs.scale(ratio)
                if lhs != rhs:
                    ok_a = False
                    detail = f"Res Ind theta mismatch for theta degree {theta.degree}"
                ind_norm = norm(ind)
                if ind_norm != ratio:
                    ok_b = False
                    detail = f"<Ind,Ind> = {ind_norm}, expected {ratio}"
                if (ind_norm == 1) != (inert.elements == s.elements):
                    ok_b = False
                    detail = "irreducibility of Ind theta disagrees with I=H"
                if ind.at_identity() != s.index * theta.degree:
                    ok_b = False
                    detail = "degree of Ind theta is not [G:H]*theta(1)"
            for chi in table_g:
                e, orbit = clifford_decomposition(chi, s)
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
        table_h = character_table(s.as_group())
        bad = []
        for theta in table_h:
            inert = inertia_group(s, theta)
            if inert.order != g.order and inert.elements != s.elements:
                bad.append((theta.degree, inert.order))
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
        table_g = character_table(g)
        ok = True
        detail = ""
        counts = {ClassificationKind.RESTRICTED: 0, ClassificationKind.INDUCED: 0}
        try:
            for chi in table_g:
                c = classify_irreducible(chi, s)
                counts[c.kind] += 1
                if not c.verified():
                    ok = False
                    detail = f"unverified classification for degree {chi.degree}"
                res = restrict(chi, s)
                res_irr = norm(res) == 1
                ind_match = induce(c.theta, s) == chi
                if c.kind == ClassificationKind.RESTRICTED and not res_irr:
                    ok = False
                    detail = "restricted case without irreducible restriction"
                if c.kind == ClassificationKind.INDUCED and res_irr:
                    ok = False
                    detail = "induced case with irreducible restriction"
                if c.kind == ClassificationKind.INDUCED and not ind_match:
                    ok = False
                    detail = "induced case where Ind theta != chi"
        except CharcondError as exc:
            ok = False
            detail = str(exc)
        total = counts[ClassificationKind.RESTRICTED] + counts[ClassificationKind.INDUCED]
        if total != len(table_g):
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
        table_h = character_table(s.as_group())
        q_group, qmap = quotient(g, s)
        lifted = [inflate(psi, qmap) for psi in character_table(q_group)]
        ok = True
        detail = ""
        invariant = 0
        try:
            for theta in table_h:
                if inertia_group(s, theta).order != g.order:
                    continue
                invariant += 1
                exts = find_extensions(theta, s)
                chi = exts[0]
                products = [pointwise_product(chi, psi) for psi in lifted]
                if len(set(products)) != len(products):
                    ok = False
                    detail = "products chi * psi_i are not distinct"
                total = products[0]
                for p in products[1:]:
                    total = total + p
                if total != induce(theta, s):
                    ok = False
                    detail = "sum of chi * psi_i differs from Ind theta"
                for p in products:
                    if norm(p) != 1:
                        ok = False
                        detail = "a product chi * psi_i is not irreducible"
                if len(exts) != len(lifted):
                    ok = False
                    detail = f"{len(exts)} extensions, expected {len(lifted)}"
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
        total = ClassFunction(table.group, table[0].values)
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
            table_h = character_table(s.as_group())
            lhs = inner_product_matrix([induce(theta, s) for theta in table_h],
                                       table)
            rhs = inner_product_matrix(table_h,
                                       [restrict(chi, s) for chi in table])
            ok_fr = True
            detail = ""
            for i, (lrow, rrow) in enumerate(zip(lhs, rhs)):
                for j, (a, b) in enumerate(zip(lrow, rrow)):
                    if a != b:
                        ok_fr = False
                        detail = f"<Ind t{i}, x{j}> = {a} != {b}"
            rep.add("tables: Frobenius reciprocity",
                    _pair_name(g, s), ok_fr, detail)
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
