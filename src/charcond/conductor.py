"""Artin conductor exponents, conductor ideals, and root-conductor bounds.

A ramification filtration is a descending chain G_0 >= G_1 >= ... of subgroups
attached to a prime; the conductor exponent of a character is

    f_p(chi) = (1/|G_0|) * sum_j (|G_j| chi(1) - chi(G_j)),

with chi(G_j) the sum of chi over G_j.  Exponents are exact integers (anything
else signals inconsistent data) and conductor norms are exact big integers.
The exponent is linear in chi: each filtration keeps one count matrix,
#(G_j in class c) for every G_j before the first trivial one, and
`conductor_exponents` turns a batch of class functions into their exponents
with one contraction against it.  `conductors` (a whole table at once),
`artin_conductor` and the conductor-discriminant oracle take that route.
`conductor_exponent` takes a second one for one character: a second count
matrix from one bincount per G_j, through the same kernel.  The bound
arithmetic on exact prime-power products with fractional exponents lives in
`bounds`, which needs no numpy; its names are re-exported here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import takewhile
from pathlib import Path

import numpy as np

from .arith import PRIME_TEST_BOUND, factor_integer, is_prime
from .bounds import (BoundInputs, RadicalValue, RestrictedBounds,
                     bound_induced_case, bound_restricted_case, global_constant)
from .characters import (ClassFunction, CharacterTable, conjugacy_classes,
                         _aligned, _same_group)
from .cyclotomic import _absmax, _matmul, scaled, values
from .errors import InvalidData, NonIntegralExponent, NotACharacter
from .groups import (FiniteGroup, Subgroup, build_from_table, load_group_file,
                     subgroup)

__all__ = [
    "RamificationFiltration", "GaloisContext", "FactoredConductor",
    "BoundInputs", "RadicalValue", "RestrictedBounds",
    "conductor_exponent", "conductor_exponents", "conductors",
    "artin_conductor", "unramified_triviality",
    "induced_conductor_norm", "root_conductor", "bound_restricted_case",
    "bound_induced_case", "global_constant", "verify_conductor_discriminant",
    "load_context", "parse_context_dict", "factor_integer",
]


# ---------------------------------------------------------------------------
# ramification data


def _require_prime(p: int) -> None:
    if p >= PRIME_TEST_BOUND:
        raise InvalidData(
            f"prime {p} is not below {PRIME_TEST_BOUND}, the exact-test bound")
    if not is_prime(p):
        raise InvalidData(f"{p} is not a prime")


@dataclass(frozen=True)
class RamificationFiltration:
    """A prime with residue norm and a descending chain G_0 >= G_1 >= ...

    The list may stop once it reaches the trivial subgroup; all later groups
    are implicitly trivial.  An empty list means the prime is unramified.
    """

    prime: int
    residue_norm: int
    groups: tuple[Subgroup, ...]

    def __post_init__(self):
        _require_prime(self.prime)
        n = self.residue_norm
        while n > 1 and n % self.prime == 0:
            n //= self.prime
        # a residue field has p^f elements with f >= 1
        if n != 1 or self.residue_norm < self.prime:
            raise InvalidData(
                f"residue norm {self.residue_norm} is not a power of {self.prime}")
        if self.groups:
            parent = self.groups[0].parent
            if self.groups[0].order == 1:
                raise InvalidData("G_0 must be nontrivial; use an empty filtration")
            for prev, sub in zip(self.groups, self.groups[1:]):
                if sub.parent is not parent:
                    raise InvalidData("filtration subgroups live in different groups")
                if not set(sub.elements) <= set(prev.elements):
                    raise InvalidData("filtration is not descending")

    @cached_property
    def counts(self) -> np.ndarray:
        """counts[j, c] = #(G_j in class c), built once per filtration."""
        return _count_matrix(self)


@dataclass(frozen=True)
class GaloisContext:
    """A group playing Gal(L/M) with ramification data at finitely many primes."""

    group: FiniteGroup
    filtrations: tuple[RamificationFiltration, ...]
    name: str | None = None
    disc: int | None = None
    labels: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        seen = set()
        for f in self.filtrations:
            if f.prime in seen:
                raise InvalidData(f"duplicate filtration at prime {f.prime}")
            seen.add(f.prime)
            # a filtration's groups share one parent
            if f.groups and f.groups[0].parent is not self.group:
                raise InvalidData(
                    "filtration subgroup lives outside the context group")


class FactoredConductor:
    """The conductor ideal as a map prime -> exponent with an exact norm."""

    def __init__(self, entries) -> None:
        # entries: iterable of (prime, exponent, residue_norm)
        self.entries = tuple(sorted((p, e, rn) for p, e, rn in entries if e))
        self.norm = math.prod(rn ** e for _, e, rn in self.entries)

    @property
    def exponents(self) -> dict[int, int]:
        return {p: e for p, e, _ in self.entries}

    def radical(self) -> RadicalValue:
        return math.prod((RadicalValue({rn: Fraction(e)})
                          for _, e, rn in self.entries), start=RadicalValue.one())

    def __eq__(self, other) -> bool:
        if not isinstance(other, FactoredConductor):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "(1)"
        return " * ".join(f"{p}^{e}" if e > 1 else str(p)
                          for p, e, _ in self.entries)

    def __repr__(self) -> str:
        return f"FactoredConductor({self})"


def _count_matrix(filt: RamificationFiltration, image=None) -> np.ndarray:
    """counts[..., j, c] = #{h in G_j : image(h) lies in class c} for each
    G_j before the first trivial one, shape (..., m, k).  `image` maps the
    array of G_0's elements to an array (..., |G_0|) of elements, and is the
    identity by default.  A trivial G_j, and every one after it, adds
    |G_j| chi(1) - chi(G_j) = 0 to an exponent.  |G_j| is the sum of row j."""
    part = conjugacy_classes(filt.groups[0].parent)
    elems = np.array(filt.groups[0].elements, dtype=np.int64)
    hits = part.class_of[elems if image is None else image(elems)][..., None] \
        == np.arange(len(part))
    return np.stack([hits[..., np.isin(elems, sub.elements), :].sum(axis=-2)
                     for sub in takewhile(lambda s: s.order > 1, filt.groups)],
                    axis=-2)


def _class_counts(filt: RamificationFiltration) -> np.ndarray:
    """counts[j, c] = #(G_j in class c) for every G_j, trivial ones included,
    from one bincount of each G_j's own elements: a count matrix built apart
    from `_count_matrix`."""
    part = conjugacy_classes(filt.groups[0].parent)
    return np.stack([np.bincount(part.class_of[list(sub.elements)],
                                 minlength=len(part)) for sub in filt.groups])


def conductor_exponents(filt: RamificationFiltration, nums: np.ndarray,
                        den: int = 1, e: int | None = None,
                        counts: np.ndarray | None = None) -> np.ndarray:
    """The exact conductor exponents at filt's prime of a batch of class
    functions: numerators nums of shape (n, k, phi(e)) over den, on the
    filtration's group; e defaults to the group's exponent, where table rows
    and their sums sit, and den to 1.

    One contraction of the count matrices counts (..., m, k), the
    filtration's own by default, with nums gives every chi(G_j); the result
    has shape (..., n).  Empty filtrations give 0.  An irrational degree
    raises NotACharacter; an irrational chi(G_j), or an exponent that is not
    a nonnegative integer, raises NonIntegralExponent, which genuine Galois
    data never does.
    """
    if not filt.groups:
        return np.zeros(len(nums), dtype=np.int64)
    if nums[:, 0, 1:].any():
        raise NotACharacter("class function has irrational degree")
    # a count of G_j in one class is at most |G_j| <= |G_0|; one scan bounds
    # nums, and another a caller's counts
    order = filt.groups[0].order
    top = order if counts is None else _absmax(counts)
    counts = filt.counts if counts is None else counts
    bound = _absmax(nums)
    sums = _matmul(counts[..., None, :, :], nums, top, bound)
    irrational = sums[sums[..., 1:].any(axis=-1)]
    if len(irrational):
        value = values(irrational[:1], e or filt.groups[0].parent.exponent(), den)
        raise NonIntegralExponent(
            f"character sum over a filtration group is irrational: {value[0]}")
    # sum_j |G_j| chi(1) - chi(G_j) = sum_c (sum_j #(G_j in c)) (chi(1) - chi(c))
    total = _matmul(counts.sum(axis=-2), (nums[:, :1, 0] - nums[:, :, 0]).T,
                    counts.shape[-2] * top, 2 * bound)
    size = scaled(np.array(order), den)
    f, rem = np.divmod(total, size)
    bad = total[(rem != 0) | (f < 0)]
    if len(bad):
        raise NonIntegralExponent(f"conductor exponent at {filt.prime} is "
                                  f"{Fraction(int(bad[0]), int(size))}, "
                                  "not a nonnegative integer")
    return f


def conductor_exponent(chi: ClassFunction, filt: RamificationFiltration) -> int:
    """The exact conductor exponent of a character at one prime.

    Empty filtrations give 0.  A non-integral or negative result raises
    NonIntegralExponent: by integrality of Artin conductors this never happens
    for genuine Galois data, so it signals inconsistent inputs.
    """
    if not filt.groups:
        return 0
    if not _same_group(filt.groups[0].parent, chi.group):
        raise NotACharacter("character does not live on the filtration's group")
    return int(conductor_exponents(filt, chi.nums[None], chi.den, chi.e,
                                   _class_counts(filt))[0])


def conductors(ctx: GaloisContext, fns) -> list[FactoredConductor]:
    """The conductor ideals of a sequence of class functions on the
    context's group (a table, say), in order: one `conductor_exponents` call
    per prime for all of them, and none for no class functions."""
    if not len(fns):
        return []
    if (any(filt.groups for filt in ctx.filtrations)
            and not all(_same_group(ctx.group, fn.group) for fn in fns)):
        raise NotACharacter("character does not live on the filtration's group")
    e, nums, den = _aligned(fns)
    exps = [conductor_exponents(filt, nums, den, e).tolist()
            for filt in ctx.filtrations]
    return [FactoredConductor((filt.prime, x[i], filt.residue_norm)
                              for filt, x in zip(ctx.filtrations, exps))
            for i in range(len(fns))]


def artin_conductor(chi: ClassFunction, ctx: GaloisContext) -> FactoredConductor:
    """The conductor ideal of a character over all primes of the context."""
    return conductors(ctx, [chi])[0]


def unramified_triviality(ctx: GaloisContext) -> bool:
    """True when every filtration is empty, forcing trivial conductors."""
    return all(not f.groups for f in ctx.filtrations)


def induced_conductor_norm(theta_degree: int, norm_f_theta: int,
                           disc: int) -> int:
    """Norm of the conductor of an induced character: disc^theta(1) * N(f_theta)."""
    if theta_degree < 1 or norm_f_theta < 1 or disc < 1:
        raise InvalidData("induced-conductor inputs must be positive")
    return disc ** theta_degree * norm_f_theta


def root_conductor(f: FactoredConductor, degree: int) -> RadicalValue:
    """The root conductor norm(f)^(1/degree) as an exact radical value."""
    if degree < 1:
        raise InvalidData("character degree must be positive")
    return f.radical() ** Fraction(1, degree)


def verify_conductor_discriminant(ctx: GaloisContext, table: CharacterTable,
                                  disc: int) -> bool:
    """Conductor-discriminant oracle: prod over Irr of norm(f_chi)^chi(1) == disc."""
    if not _same_group(table.group, ctx.group):
        raise NotACharacter("table does not belong to the context's group")
    return math.prod(fc.norm ** chi.degree
                     for fc, chi in zip(conductors(ctx, table), table)) == disc


# ---------------------------------------------------------------------------
# JSON ingestion of ramification data


def parse_context_dict(data: dict, base_dir=None,
                       name: str | None = None) -> GaloisContext:
    """Build a context from the documented JSON shape.

    { "group": <path or inline table>, "primes": [ { "p": int,
      "residue_norm": int, "filtration": [[indices of G_0], [G_1], ...] } ],
      "disc": int, "labels": {...} }
    """
    if not isinstance(data, dict) or "group" not in data or "primes" not in data:
        raise InvalidData("context needs 'group' and 'primes' fields")
    spec = data["group"]
    if isinstance(spec, str):
        path = Path(spec)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        group = load_group_file(path)
    elif isinstance(spec, list):
        group = build_from_table(spec, name=name)
    else:
        raise InvalidData("'group' must be a file path or an inline table")
    filts = []
    for entry in _field(data["primes"], list, "'primes'"):
        if not isinstance(entry, dict) or "p" not in entry:
            raise InvalidData(f"bad prime entry {entry!r}")
        p = _field(entry["p"], int, "'p'")
        _require_prime(p)   # before the filtration subgroups are validated
        rn = _field(entry.get("residue_norm", p), int, "'residue_norm'")
        subs = tuple(
            subgroup(group, [_field(v, int, "a filtration element")
                             for v in _field(members, list, "a filtration group")])
            for members in _field(entry.get("filtration", []), list,
                                  "'filtration'"))
        filts.append(RamificationFiltration(p, rn, subs))
    disc = data.get("disc")
    return GaloisContext(group, tuple(filts), name=name,
                         disc=None if disc is None else _field(disc, int, "'disc'"),
                         labels=_field(data.get("labels", {}), dict, "'labels'"))


_JSON_TYPES = {int: "an integer", list: "a list", dict: "an object"}


def _field(value, kind: type, what: str):
    """A context-document field of JSON type `kind` (bools are not integers)."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise InvalidData(f"{what} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def load_context(path) -> GaloisContext:
    p = Path(path)
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except OSError as exc:
        raise InvalidData(f"cannot read context file {p}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidData(f"context file {p} is not valid JSON: {exc}") from exc
    return parse_context_dict(data, base_dir=p.parent, name=p.stem)
