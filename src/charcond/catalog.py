"""Builtin catalog of small groups and bundled ramification datasets.

Groups: cyclic C1..C24, dihedral D3..D12 plus the Klein group D2 (orders 4 to
24), symmetric S1..S4, and the quaternion group Q8.  Direct products of these
factors are resolved on demand from names like "S3xS3xS3" up to order 216.
Every builtin group passes full axiom validation when it is built: Latin
square, two-sided identity and inverses, and associativity by Light's test,
which checks (x s) y = x (s y) for all x, y and every s in a generating set
and so certifies associativity of the whole table.  Normal subgroups come
from the kernels of the irreducible characters, closed under intersection.

Contexts: `quintic11` (C5 tame at 11, disc 11^4), `gauss` (C2 wild at 2,
disc 4), `quad-m23` (C2 tame at 23, disc 23), and the bound dataset
`martinet-constants` (disc 11^4, per-degree norm cap T = 2^15 * 23, ramified
primes 2, 11, 23).
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from .conductor import (BoundInputs, GaloisContext, RamificationFiltration,
                        load_context)
from .errors import InvalidData, TooLarge
from .groups import (FiniteGroup, build_from_table, build_from_permutations,
                     direct_product, full_subgroup, load_group_file)

PRODUCT_ORDER_CAP = 216


def _cyclic(n: int) -> FiniteGroup:
    if n == 1:
        return build_from_table([[0]], labels=("e",), name="C1")
    return build_from_permutations(
        n, [tuple((i + 1) % n for i in range(n))], name=f"C{n}")


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


class Catalog:
    """Name resolution for builtin groups, products, contexts, and datasets."""

    def __init__(self) -> None:
        self._groups: dict[str, FiniteGroup] = {}
        self._contexts: dict[str, GaloisContext] = {}

    # -- groups -------------------------------------------------------------

    def base_names(self) -> list[str]:
        names = [f"C{n}" for n in range(1, 25)]
        names += ["D2"] + [f"D{n}" for n in range(3, 13)]
        names += [f"S{n}" for n in range(1, 5)]
        names += ["Q8"]
        return names

    def _build_base(self, name: str) -> FiniteGroup | None:
        kind, rest = name[0], name[1:]
        if not rest.isdigit():
            return None
        n = int(rest)
        if kind == "C" and 1 <= n <= 24:
            return _cyclic(n)
        if kind == "D" and n == 2:
            return _klein()
        if kind == "D" and 3 <= n <= 12:
            return _dihedral(n)
        if kind == "S" and 1 <= n <= 4:
            return _symmetric(n)
        if kind == "Q" and n == 8:
            return _quaternion()
        return None

    def group(self, name: str) -> FiniteGroup:
        """Resolve a builtin name or an x-separated product of builtin names."""
        key = name.strip()
        if key in self._groups:
            return self._groups[key]
        norm = key.upper().replace("X", "x")
        if norm in self._groups:
            return self._groups[norm]
        parts = norm.split("x")
        built = []
        for part in parts:
            g = self._build_base(part)
            if g is None:
                raise InvalidData(f"unknown catalog group {name!r}")
            built.append(g)
        order = 1
        for g in built:
            order *= g.order
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
        try:
            return self.group(ref)
        except InvalidData:
            pass
        if Path(ref).exists():
            return load_group_file(ref)
        raise InvalidData(f"{ref!r} is neither a catalog group nor a readable file")

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
        return ["gauss", "quad-m23", "quintic11"]

    def context(self, name: str) -> GaloisContext:
        key = name.strip().lower()
        if key in self._contexts:
            return self._contexts[key]
        ctx = self._build_context(key)
        if ctx is None:
            raise InvalidData(f"unknown catalog context {name!r}")
        self._contexts[key] = ctx
        return ctx

    def _build_context(self, key: str) -> GaloisContext | None:
        if key == "quintic11":
            g = self.group("C5")
            filt = RamificationFiltration(11, 11, (full_subgroup(g),))
            return GaloisContext(g, (filt,), name="quintic11", disc=14641,
                                 labels={"field": "real quintic of conductor 11"})
        if key == "gauss":
            g = self.group("C2")
            full = full_subgroup(g)
            filt = RamificationFiltration(2, 2, (full, full))
            return GaloisContext(g, (filt,), name="gauss", disc=4,
                                 labels={"field": "Q(i)"})
        if key == "quad-m23":
            g = self.group("C2")
            filt = RamificationFiltration(23, 23, (full_subgroup(g),))
            return GaloisContext(g, (filt,), name="quad-m23", disc=23,
                                 labels={"field": "Q(sqrt(-23))"})
        return None

    def resolve_context(self, ref: str) -> GaloisContext:
        try:
            return self.context(ref)
        except InvalidData:
            pass
        if Path(ref).exists():
            return load_context(ref)
        raise InvalidData(
            f"{ref!r} is neither a catalog context nor a readable file")

    def bound_dataset_names(self) -> list[str]:
        return ["martinet-constants"]

    def bound_dataset(self, name: str) -> dict:
        key = name.strip().lower()
        if key == "martinet-constants":
            return {
                "name": "martinet-constants",
                "disc": 14641,
                "T": Fraction(2 ** 15 * 23),
                "q": 5,
                "theta_degree": 1,
                "norm_f_theta": 1,
                "ramified_primes": [2, 11, 23],
            }
        raise InvalidData(f"unknown bound dataset {name!r}")

    def bound_inputs(self, name: str) -> BoundInputs:
        d = self.bound_dataset(name)
        return BoundInputs(disc=d["disc"], q=d["q"],
                           theta_degree=d["theta_degree"],
                           norm_f_theta=d["norm_f_theta"], T=d["T"])


_default = None


def default_catalog() -> Catalog:
    global _default
    if _default is None:
        _default = Catalog()
    return _default
