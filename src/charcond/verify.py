"""Catalog-wide verification sweeps for the classification and conductor laws.

Each suite walks the builtin catalog up to an order cap and checks exact
identities; a report records one line per (identity, group, subgroup) with
inner case counts and carries the offending exact values on failure.  Every
record goes through `_attempt`: a check runs once and returns the detail of
each record it decides, "" when it holds, and an exact error fails every
record of the check with its message, so a record passes only when its own
check ran to the end and held.  Tables are read inside the checks, except
where a record's text names a value: the degrees suite's chains and largest
degrees and the Gallagher label come from `_outcome`, which returns an exact
error in place of a value, so that a check given one fails its records with
it and their text shows "?".  The clifford, dichotomy, classification and
gallagher suites share one loop over the normal pairs (G, H), and they and
the Frobenius check read whole tables: the arrays of the normal pairs of
one group, built together once (`clifford._pairs`), of which a pair's
`clifford._NormalPair` is its segment.  Each verdict is one pass over those
arrays, for all rows or all theta of all the pairs of a group at once, and
a check reads its pair's segment and builds exact values only for the text
of a failure; Gallagher's products of all the pairs of prime index of a
group come from one pass modulo the Gram primes (`clifford._products`).
The two sides of each identity come by different routes: Res Ind theta by
the gather of the induced table, the orbit sums by the row permutations;
<Ind theta, Ind theta> by a Gram product, |I/H| by the stabilizer; e and
the constituents by the multiplicity Gram product, the orbit by the
permutations; <chi, Ind theta> by a Gram product of the induced table,
<Res chi, theta> by the multiplicity Gram product of the gather.

The conductor checks work on arrays as well.  The random characters phi, psi
of the additivity trials are one multiplicity matrix times the table.  The
conductor-discriminant product, the induced conductor and f(phi + psi) for
all trials at once come from a filtration's count matrix
(`conductor.conductor_exponents`); f(phi) + f(psi), and the exponents on the
filtration padded with trivial groups, from a second count matrix from one
bincount per G_j, through the same kernel; conjugation invariance compares
the count-matrix route on the filtration with the count matrices of all its
conjugates, gathered at once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import DEFAULT_MAX_ORDER, SUITE_NAMES
from .catalog import Catalog, default_catalog
from .characters import (character_table, induce, _conj_class_perms, _exact,
                         _table_nums)
from .clifford import (NormalChain, construct_large_degree, promote_degree,
                       _classify_row, _clifford_row, _equals, _pair, _pairs,
                       _products)
from .cyclotomic import _matmul
from .conductor import (GaloisContext, RamificationFiltration, artin_conductor,
                        conductor_exponents, conductors,
                        induced_conductor_norm, unramified_triviality,
                        verify_conductor_discriminant, _class_counts,
                        _count_matrix)
from .errors import CharcondError, InvalidData
from .groups import (FiniteGroup, Subgroup, normal_subgroups,
                     prime_index_normal_subgroups, product_chain,
                     row_keys, trivial_subgroup)

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


def _outcome(fn, *args):
    """fn(*args), or the exact error that it raised: a value that could not
    be computed stands as its error.  The first argument that is an error is
    the outcome, and fn is not called."""
    try:
        return next((a for a in args if isinstance(a, CharcondError)),
                    None) or fn(*args)
    except CharcondError as exc:
        return exc


def _shown(value) -> str:
    """A value for a record's text, "?" when it could not be computed."""
    return "?" if isinstance(value, CharcondError) else str(value)


def _attempt(rep: VerificationReport, identities: tuple[str, ...], inputs: str,
             check, *args) -> None:
    """Run check(*args) once and record each of its identities at inputs.
    The check returns the detail of each record it decides, "" when the
    record holds, or None when all of them hold; an exact error, raised by
    the check or standing for one of its arguments (see `_outcome`), fails
    every record with its message.  So a record passes only when its own
    check ran to the end and held."""
    details = _outcome(check, *args) or ("",) * len(identities)
    if isinstance(details, CharcondError):
        details = (str(details),) * len(identities)
    for identity, detail in zip(identities, details, strict=True):
        rep.add(identity, inputs, not detail, detail)


def _pair_name(g: FiniteGroup, s: Subgroup) -> str:
    return f"G={g.name or g.order}, |H|={s.order}"


def _pair_suite(suite: str, cat: Catalog | None, max_order: int,
                prime_only: bool, checks, label=None,
                batch=None) -> VerificationReport:
    """The records of `checks`, (identities, check of a subgroup) pairs, on
    every proper normal pair (G, H) of the catalog, of prime index if asked,
    the pairs of each G built together.
    A `label`, (name, function of a subgroup), adds its value to the inputs
    of the pair's records and is its checks' second argument.  A `batch`,
    a function of the subgroups of one G that gives one value per subgroup,
    gives the checks their last argument; an exact error that it raises
    stands for the value of every subgroup."""
    rep = VerificationReport(suite)
    for _, g in (cat or default_catalog()).groups_up_to(max_order):
        subs = [s for s in (prime_index_normal_subgroups(g) if prime_only
                            else normal_subgroups(g)) if s.order < g.order]
        _pairs(subs)
        found = _outcome(batch, subs) if batch else None
        for k, s in enumerate(subs):
            where, args = _pair_name(g, s), (s,)
            if label:
                value = _outcome(label[1], s)
                where, args = f"{where}, {label[0]}={_shown(value)}", (s, value)
            if batch:
                args += (found if isinstance(found, CharcondError) else found[k],)
            for identities, check in checks:
                _attempt(rep, identities, where, check, *args)
    return rep


def _last_failure(fails: list[np.ndarray], texts: list) -> str:
    """The text of the last failure in the order of a loop over the items
    with the checks inside it: fails holds one boolean array over the items
    per check, texts one function of the item per check; "" when none
    fails."""
    fails = np.array(fails).T
    if not fails.any():
        return ""
    item, check = (int(at[-1]) for at in fails.nonzero())
    return texts[check](item)


def _induction(s: Subgroup) -> tuple[str, str]:
    """Res Ind theta = |I/H| times the orbit sum, and <Ind theta, Ind theta>
    = |I/H| with the degree bookkeeping, read off the pair's induction
    verdicts over every theta of H; each record shows its last failure."""
    pair = _pair(s)
    fails = pair.induction
    if not fails.any():
        return ("", "")
    deg, scale = pair.th[:, 0, 0], s.order ** 2 * s.parent.order
    ratio, norms = pair.stab // s.order, pair.ind_norm
    return (_last_failure(
        fails[:1],
        [lambda i: f"Res Ind theta mismatch for theta degree {int(deg[i])}"]),
        _last_failure(
        fails[1:],
        [lambda i: (f"<Ind,Ind> = {_exact(norms[i], pair.e, scale)}, "
                    f"expected {int(ratio[i])}"),
         lambda i: "irreducibility of Ind theta disagrees with I=H",
         lambda i: "degree of Ind theta is not [G:H]*theta(1)"]))


def _clifford_rows(s: Subgroup) -> None:
    """Res chi = e * orbit with the e-bounds for every row, read off the
    pair's Clifford verdicts: the first failing row raises its message."""
    for r in (_pair(s).clifford[3] >= 0).nonzero()[0][:1].tolist():
        _clifford_row(s, r)


def suite_clifford(cat: Catalog | None = None,
                   max_order: int = DEFAULT_MAX_ORDER) -> VerificationReport:
    """Restriction/induction identities over every normal pair in the catalog."""
    return _pair_suite("clifford", cat, max_order, prime_only=False, checks=[
        (("clifford: Res Ind theta = |I/H| sum of conjugates",
          "clifford: <Ind theta, Ind theta> = |I/H| and degree bookkeeping"),
         _induction),
        (("clifford: Res chi = e * orbit with e-bounds",), _clifford_rows)])


def _dichotomy(s: Subgroup) -> tuple[str]:
    pair = _pair(s)
    bad = [(int(pair.th[j, 0, 0]), int(pair.stab[j])) for j
           in ((pair.stab != s.parent.order) & ~pair.is_h).nonzero()[0]]
    return (f"violations {bad}" if bad else "",)


def suite_dichotomy(cat: Catalog | None = None,
                    max_order: int = DEFAULT_MAX_ORDER) -> VerificationReport:
    """Inertia groups under prime index are all-or-nothing."""
    return _pair_suite("dichotomy", cat, max_order, prime_only=True, checks=[
        (("dichotomy: I(theta) is G or H under prime index",), _dichotomy)])


def _classification(s: Subgroup) -> tuple[str]:
    """Every row classified, from the pair's classification checks, and its
    kind read again off the multiplicities: the first induced row whose
    checks fail raises, as `_classify_row` does, else the record shows the
    last failure."""
    pair = _pair(s)
    (j, _, _, fail), checks, mult = pair.clifford, pair.checks, pair.mult
    restricted, deg = checks[0], pair.tg[:, 0, 0]
    for r in (~restricted & ((fail >= 0) | ~checks[4:].all(axis=0))
              ).nonzero()[0][:1].tolist():
        _classify_row(s, r)
    # the kind came from <Res chi, Res chi>; irreducibility and
    # Ind theta = chi are read here off the multiplicities and the
    # induced degree: by Frobenius, <Ind theta, chi> = 1
    res_irr = mult.sum(axis=1) == 1
    ind_match = ((mult[np.arange(len(mult)), j] == 1)
                 & _equals(pair.ind[j, 0], deg * s.order))
    return (_last_failure(
        [restricted & ~checks[:4].all(axis=0), restricted != res_irr,
         ~restricted & ~ind_match],
        [lambda r: f"unverified classification for degree {int(deg[r])}",
         lambda r: (f"{'restricted' if restricted[r] else 'induced'} case "
                    f"with{'' if res_irr[r] else 'out'} irreducible restriction"),
         lambda r: "induced case where Ind theta != chi"]),)


def suite_classification(cat: Catalog | None = None,
                         max_order: int = DEFAULT_MAX_ORDER) -> VerificationReport:
    """Every irreducible is restricted or induced, exclusively."""
    return _pair_suite("classification", cat, max_order, prime_only=True, checks=[
        (("classification: totality and exclusivity under prime index",),
         _classification)])


def _gallagher(s: Subgroup, invariant: int, found: tuple) -> tuple[str]:
    """Each invariant theta has extensions chi; the products chi * psi_i with
    the irreducibles psi_i of G/H are distinct and irreducible, sum to Ind
    theta and are as many as the extensions, as arrays over the invariant
    thetas, from the group's one pass modulo the Gram primes
    (`clifford._products`): distinctness and the sum compared at every
    embedding, the norms interpolated; the invariant thetas are as many as
    the label counted; the record shows the last failure."""
    thetas, exts, repeated, differs, norms = found
    m = norms.shape[1]
    detail = _last_failure(
        [repeated, differs, ~_equals(norms, s.parent.order).all(axis=1), exts != m],
        [lambda x: "products chi * psi_i are not distinct",
         lambda x: "sum of chi * psi_i differs from Ind theta",
         lambda x: "a product chi * psi_i is not irreducible",
         lambda x: f"{exts[x]} extensions, expected {m}"])
    if len(thetas) != invariant:
        detail = f"{len(thetas)} invariant thetas, the label counts {invariant}"
    return (detail,)


def _invariant_thetas(s: Subgroup) -> int:
    """How many rows of H's table G fixes, compared under each distinct
    permutation of the H-classes once, so that the record names them when
    the pair's own arrays cannot be built."""
    th, perms = _table_nums(s.as_group()), _conj_class_perms(s)
    perms = perms[list(dict(zip(row_keys(perms), range(len(perms)))).values())]
    return int((th[:, perms] == th[:, None]).all(axis=(1, 2, 3)).sum())


def suite_gallagher(cat: Catalog | None = None,
                    max_order: int = DEFAULT_MAX_ORDER) -> VerificationReport:
    """Invariant characters extend, and Ind theta = sum of chi * psi_i exactly."""
    return _pair_suite("gallagher", cat, max_order, prime_only=True, checks=[
        (("gallagher: extensions exist and exhaust Ind theta",), _gallagher)],
        label=("invariant thetas", _invariant_thetas), batch=_products)


def _s3_chain(cat: Catalog, copies: int) -> NormalChain:
    s3 = cat.group("S3")
    prod, chain = product_chain([s3] * copies)
    return NormalChain(prod, tuple(chain))


def _chain_degree(chain: NormalChain, table_max: int) -> tuple[str, str, str]:
    """The degree of the chain's character against 2^length and the table's
    largest degree, and its square against 2^(n - 1) for n = 2 length: a
    chain of length L certifies a degree exceeding 2^((n-1)/2)."""
    degree = construct_large_degree(chain).degree
    return ("" if 2 ** chain.length <= degree <= table_max
            else f"degree {degree}, table max {table_max}",
            "" if degree <= table_max else f"degree {degree}",
            "" if degree ** 2 > 2 ** (2 * chain.length - 1) else f"degree {degree}")


def _promotion(cat: Catalog) -> tuple[str]:
    left = _s3_chain(cat, 2).subgroups[1]
    theta = next(r for r in character_table(left.as_group()) if r.degree == 2)
    degree = promote_degree(theta, left).degree
    return ("" if degree >= 2 else f"degree {degree}",)


def suite_degrees(cat: Catalog | None = None,
                  max_order: int = DEFAULT_MAX_ORDER) -> VerificationReport:
    """Degree growth along non-abelian chains, checked against full tables."""
    cat = cat or default_catalog()
    rep = VerificationReport("degrees")
    for copies in (1, 2, 3):
        chain = _outcome(_s3_chain, cat, copies)
        table_max = _outcome(lambda c: max(character_table(c.group).degrees()), chain)
        _attempt(rep, (
            f"degrees: chain of length {copies} gives degree >= {2 ** copies}",
            f"degrees: chain degree consistent with table maximum {_shown(table_max)}",
            f"degrees: length-{copies} chain exceeds 2^(({2 * copies}-1)/2)"),
            f"G order {6 ** copies}", _chain_degree, chain, table_max)
    _attempt(rep, ("degrees: promotion keeps degree at least theta(1)",),
             "theta degree 2 in order-36 group", _promotion, cat)
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


def _discriminant(ctx: GaloisContext) -> tuple[str]:
    ok = verify_conductor_discriminant(ctx, character_table(ctx.group), ctx.disc)
    return ("" if ok else "product mismatch",)


def _additivity(ctx: GaloisContext, rng: random.Random) -> tuple[str]:
    """f(phi + psi) by the filtration's count matrix for all pairs at once,
    against f(phi) + f(psi) by the second count matrix of `_class_counts`."""
    chars = _random_characters(_table_nums(ctx.group), rng)
    detail = ""
    for filt in filter(lambda filt: filt.groups, ctx.filtrations):
        lhs = conductor_exponents(filt, chars[0::2] + chars[1::2])
        each = conductor_exponents(filt, chars, counts=_class_counts(filt))
        for got, want in zip(lhs.tolist(), (each[0::2] + each[1::2]).tolist()):
            if got != want:
                detail = f"f(phi+psi)={got} vs {want} at prime {filt.prime}"
    return (detail,)


def _truncation(ctx: GaloisContext) -> tuple[str] | None:
    """The table's exponents by the filtration's count matrix, against the
    second count matrix of `_class_counts` once two trivial groups are
    appended to the filtration."""
    nums, triv = _table_nums(ctx.group), trivial_subgroup(ctx.group)
    for filt in filter(lambda filt: filt.groups, ctx.filtrations):
        padded = RamificationFiltration(filt.prime, filt.residue_norm,
                                        filt.groups + (triv, triv))
        want = conductor_exponents(filt, nums).tolist()
        got = conductor_exponents(padded, nums,
                                  counts=_class_counts(padded)).tolist()
        if got != want:
            return (f"padded exponents {got} vs {want} at prime {filt.prime}",)


def _conjugation(ctx: GaloisContext) -> tuple[str] | None:
    """The table's exponents by the matrix route, on the filtration and on
    the count matrices of all its conjugates x G_j x^-1 from one gather."""
    g, nums = ctx.group, _table_nums(ctx.group)
    for filt in filter(lambda filt: filt.groups, ctx.filtrations):
        counts = _count_matrix(filt, lambda h: g.mul[g.mul[:, h], g.inv[:, None]])
        got = conductor_exponents(filt, nums, counts=counts)
        want = conductor_exponents(filt, nums)
        moved = (got != want).any(axis=1).nonzero()[0]
        if len(moved):
            return (f"conjugating by {moved[0]} gives exponents "
                    f"{got[moved[0]].tolist()}, not {want.tolist()}",)


def _induced_norm(ctx: GaloisContext) -> tuple[str]:
    triv = trivial_subgroup(ctx.group)
    ind = induce(character_table(triv.as_group())[0], triv)
    got, want = artin_conductor(ind, ctx).norm, induced_conductor_norm(1, 1, ctx.disc)
    return ("" if got == want else f"{got} != {want}",)


def _unramified(cat: Catalog) -> tuple[str] | None:
    """A context with no filtrations reads as unramified and gives every
    character of C2 the trivial conductor."""
    empty = GaloisContext(cat.group("C2"), (), name="unramified")
    norms = [fc.norm for fc in conductors(empty, character_table(empty.group))]
    if not unramified_triviality(empty) or set(norms) != {1}:
        return (f"unramified {unramified_triviality(empty)}, "
                f"conductor norms {norms}",)


def suite_conductor(cat: Catalog | None = None,
                    max_order: int = DEFAULT_MAX_ORDER) -> VerificationReport:
    """Conductor oracle, additivity, truncation and conjugation invariance."""
    cat = cat or default_catalog()
    rep = VerificationReport("conductor")
    rng = random.Random(_RANDOM_SEED)
    for name in cat.context_names():
        ctx = cat.context(name)
        here = f"context {name}"
        if ctx.disc is not None:
            _attempt(rep, ("conductor: conductor-discriminant product equals disc",),
                     f"{here}, disc {ctx.disc}", _discriminant, ctx)
        _attempt(rep, ("conductor: exponents are additive in the character",),
                 f"{here}, {_ADDITIVITY_TRIALS} random sums",
                 _additivity, ctx, rng)
        _attempt(rep, ("conductor: appending trivial groups never changes exponents",),
                 here, _truncation, ctx)
        _attempt(rep,
                 ("conductor: exponents invariant under conjugating the filtration",),
                 here, _conjugation, ctx)
        if ctx.disc is not None:
            _attempt(rep, ("conductor: induced conductor norm matches "
                           "disc^theta(1) * N",), here, _induced_norm, ctx)
    _attempt(rep, ("conductor: unramified context forces trivial conductors",),
             "context with no filtrations", _unramified, cat)
    for name in cat.context_names():
        # recorded only when it fails, as every catalog context is ramified
        if unramified_triviality(cat.context(name)):
            _attempt(rep, ("conductor: ramified context not reported unramified",),
                     f"context {name}", lambda: ("every filtration is empty",))
    return rep


def suite_tables(cat: Catalog | None = None,
                 max_order: int = DEFAULT_MAX_ORDER) -> VerificationReport:
    """Orthogonality, degree sums, and Frobenius reciprocity on normal pairs."""
    cat = cat or default_catalog()
    rep = VerificationReport("tables")
    for name, g in cat.groups_up_to(max_order):
        _attempt(rep, ("tables: exact row and column orthogonality, sum of squares",),
                 f"G={name}", lambda: character_table(g).validate())
        subs = [s for s in normal_subgroups(g) if s.order < g.order]
        _pairs(subs)
        for s in subs:
            _attempt(rep, ("tables: Frobenius reciprocity",),
                     _pair_name(g, s), lambda: (_pair(s).frobenius(),))
    return rep


_SUITES = {name: globals()[f"suite_{name}"] for name in SUITE_NAMES[:-1]}


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
