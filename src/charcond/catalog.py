"""Builtin catalog of small groups and bundled ramification datasets.

Groups: cyclic C1..C24, dihedral D3..D12 plus the Klein group D2 (orders 4 to
24), symmetric S1..S4, and the quaternion group Q8, each listed once in
`_BASE` with its builder.  A factor's digits are read as an integer, so "C024"
names C24.  Direct products of these factors are resolved on demand from
names like "S3xS3xS3" up to order PRODUCT_ORDER_CAP = 216.  Every builtin
group passes full axiom validation when it is built: Latin square, two-sided
identity and inverses, and associativity by Light's test, which checks
(x s) y = x (s y) for all x, y and every s in a generating set and so
certifies associativity of the whole table.  Normal subgroups come from the
kernels of the irreducible characters, closed under intersection.

Contexts, each one row of `_CONTEXTS`: `quintic11` (C5 tame at 11, disc
11^4), `gauss` (C2 wild at 2, disc 4), `quad-m23` (C2 tame at 23, disc 23),
each with one totally ramified prime of residue norm p.  Bound datasets come
from the one registry `bounds.BOUND_DATASETS`: `martinet-constants` (disc
11^4, per-degree norm cap T = 2^15 * 23, ramified primes 2, 11, 23).

`Catalog.resolve_group` and `resolve_context` share one resolver: the catalog
name first, then a readable file, else one "neither a catalog group/context
nor a readable file" error.
"""

from __future__ import annotations

from dataclasses import fields
from functools import partial
from math import prod
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidData, TooLarge
from .groups import (FiniteGroup, _cycle_labels, build_from_table,
                     build_from_permutations, direct_product, full_subgroup,
                     load_group_file)

if TYPE_CHECKING:
    from .bounds import BoundInputs
    from .conductor import GaloisContext

PRODUCT_ORDER_CAP = 216


def _cyclic(n: int) -> FiniteGroup:
    # element k is the rotation i -> i + k mod n, numbered as the closure of
    # i -> i + 1 numbers it, so row k of the table is that rotation's images
    mul = np.add.outer(np.arange(n), np.arange(n)) % n
    return FiniteGroup(mul, _cycle_labels(mul), name=f"C{n}")


def _dihedral(n: int) -> FiniteGroup:
    # symmetries of the regular n-gon, order 2n; needs n >= 3 to be faithful
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((n - i) % n for i in range(n))
    return build_from_permutations(n, [rot, ref], name=f"D{n}")


def _klein() -> FiniteGroup:
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    return build_from_table(table, labels=("e", "a", "b", "ab"), name="D2")


def _symmetric(n: int) -> FiniteGroup:
    if n == 1:
        return build_from_table([[0]], labels=("e",), name="S1")
    gens = [tuple([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    return build_from_permutations(n, gens, name=f"S{n}")


def _quaternion() -> FiniteGroup:
    # elements 1, -1, i, -i, j, -j, k, -k encoded 0..7 as (unit u, sign s) -> 2u+s
    def mul_units(a: int, b: int) -> tuple[int, int]:
        # 0=1, 1=i, 2=j, 3=k with the usual quaternion relations
        if a == 0:
            return b, 1
        if b == 0:
            return a, 1
        if a == b:
            return 0, -1
        table = {(1, 2): (3, 1), (2, 3): (1, 1), (3, 1): (2, 1),
                 (2, 1): (3, -1), (3, 2): (1, -1), (1, 3): (2, -1)}
        return table[(a, b)]

    def mul(x: int, y: int) -> int:
        ux, sx = x >> 1, 1 - 2 * (x & 1)
        uy, sy = y >> 1, 1 - 2 * (y & 1)
        u, s = mul_units(ux, uy)
        s *= sx * sy
        return 2 * u + (0 if s == 1 else 1)

    table = [[mul(x, y) for y in range(8)] for x in range(8)]
    labels = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    return build_from_table(table, labels=labels, name="Q8")


# name -> builder of every base group, in listing order
_BASE = {
    **{f"C{n}": partial(_cyclic, n) for n in range(1, 25)},
    "D2": _klein,
    **{f"D{n}": partial(_dihedral, n) for n in range(3, 13)},
    **{f"S{n}": partial(_symmetric, n) for n in range(1, 5)},
    "Q8": _quaternion,
}

# name -> (group, prime p, times G_0 repeats, disc, field): one prime, of
# residue norm p, whose ramification groups are G_0 = G that many times
_CONTEXTS = {
    "gauss": ("C2", 2, 2, 4, "Q(i)"),
    "quad-m23": ("C2", 23, 1, 23, "Q(sqrt(-23))"),
    "quintic11": ("C5", 11, 1, 14641, "real quintic of conductor 11"),
}


def _resolve(ref: str, lookup, load, what: str):
    """`lookup(ref)` in the catalog, else `load(ref)` when ref is a file."""
    try:
        return lookup(ref)
    except InvalidData:
        pass
    if Path(ref).is_file():
        return load(ref)
    raise InvalidData(f"{ref!r} is neither a catalog {what} nor a readable file")


def _load_context(path: str) -> GaloisContext:
    # here and in Catalog._build_context only: a `table` request needs no conductor
    from .conductor import load_context
    return load_context(path)


class Catalog:
    """Name resolution for builtin groups, products, contexts, and datasets."""

    def __init__(self) -> None:
        self._groups: dict[str, FiniteGroup] = {}
        self._contexts: dict[str, GaloisContext] = {}

    # -- groups -------------------------------------------------------------

    def base_names(self) -> list[str]:
        return list(_BASE)

    def group(self, name: str) -> FiniteGroup:
        """Resolve a builtin name or an x-separated product of builtin names."""
        norm = name.strip().upper().replace("X", "x")
        if norm in self._groups:
            return self._groups[norm]
        built = []
        for part in norm.split("x"):
            # the digits are read as an integer, so "C024" names C24
            kind, digits = part[:1], part[1:]
            build = (_BASE.get(f"{kind}{int(digits)}")
                     if digits.isascii() and digits.isdigit() else None)
            if build is None:
                raise InvalidData(f"unknown catalog group {name!r}")
            built.append(build())
        order = prod(g.order for g in built)
        if len(built) > 1 and order > PRODUCT_ORDER_CAP:
            raise TooLarge(
                f"product order {order} exceeds the catalog cap of "
                f"{PRODUCT_ORDER_CAP}")
        out = built[0]
        for g in built[1:]:
            out = direct_product(out, g)
        self._groups[norm] = out
        return out

    def resolve_group(self, ref: str) -> FiniteGroup:
        """Catalog name first, then a path to a group file."""
        return _resolve(ref, self.group, load_group_file, "group")

    def groups_up_to(self, max_order: int):
        """All base catalog groups with order at most max_order, by (order, name)."""
        out = []
        for name in self.base_names():
            g = self.group(name)
            if g.order <= max_order:
                out.append((name, g))
        out.sort(key=lambda item: (item[1].order, item[0]))
        return out

    # -- contexts and datasets ----------------------------------------------

    def context_names(self) -> list[str]:
        return list(_CONTEXTS)

    def context(self, name: str) -> GaloisContext:
        key = name.strip().lower()
        if key not in _CONTEXTS:
            raise InvalidData(f"unknown catalog context {name!r}")
        if key not in self._contexts:
            self._contexts[key] = self._build_context(key)
        return self._contexts[key]

    def _build_context(self, key: str) -> GaloisContext:
        # here and in _load_context only: a `table` request needs no conductor
        from .conductor import GaloisContext, RamificationFiltration
        group, p, repeats, disc, field = _CONTEXTS[key]
        g = self.group(group)
        filt = RamificationFiltration(p, p, (full_subgroup(g),) * repeats)
        return GaloisContext(g, (filt,), name=key, disc=disc,
                             labels={"field": field})

    def resolve_context(self, ref: str) -> GaloisContext:
        """Catalog name first, then a path to a context JSON file."""
        return _resolve(ref, self.context, _load_context, "context")

    def bound_dataset_names(self) -> list[str]:
        from .bounds import BOUND_DATASETS
        return list(BOUND_DATASETS)

    def bound_dataset(self, name: str) -> dict:
        from .bounds import bound_dataset
        return bound_dataset(name)

    def bound_inputs(self, name: str) -> BoundInputs:
        from .bounds import BoundInputs
        d = self.bound_dataset(name)
        return BoundInputs(**{f.name: d[f.name] for f in fields(BoundInputs)})


_default = None


def default_catalog() -> Catalog:
    global _default
    if _default is None:
        _default = Catalog()
    return _default
