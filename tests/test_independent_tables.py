"""Character tables that do not come from Dixon's method.

Closed forms: chi_j(g^m) = zeta_n^(jm) on a generator g of Cn; for the
dihedral group of order 2n, its 2 or 4 linear characters and
psi_j(r^m) = zeta_n^(jm) + zeta_n^(-jm), zero on reflections; the five
characters of Q8 and the four of the Klein group; and the table of S4 from
the literature, by element order and centralizer size.  A direct product
takes the tensor products (chi x psi)(a, b) = chi(a) psi(b) of its factors'
independent tables, through the encoding a * |B| + b of `direct_product`.

Each table is built per element as integer coefficients of the powers of
zeta_e, e = exp(G), reduced to power-basis numerators by its own cyclotomic
polynomial, and compared with `character_table` as exact arrays: the
classes are the group's own `class_of`, and the rows are compared as a set.
The Frobenius-Schur count checks the Dixon tables against the group's
square map alone, and the power maps chi(g^m) = sigma_m(chi(g)) against its
m-th power maps and the Galois action; both also run on S5, S6 and S7 built
from permutations.  Their tables come from the Murnaghan-Nakayama rule on
partitions and cycle types (Sagan, The Symmetric Group, section 4.10), with
each class's cycle type read off its elements' cycle labels.  Nothing here
calls the cyclotomic kernels or the group layer beyond the multiplication
table, the class partition, the element labels and, for sigma_m,
`_galois_matrix`.
"""

from functools import lru_cache
from math import gcd, lcm

import numpy as np
import pytest

from charcond.catalog import Catalog
from charcond.characters import character_table
from charcond.cyclotomic import _galois_matrix
from charcond.groups import build_from_permutations, conjugacy_classes


@lru_cache(maxsize=None)
def _cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, lowest first: x^n - 1 divided by Phi_d, d | n."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = _cyclotomic_poly(d)
            quo = [0] * (len(num) - len(den) + 1)
            for i in range(len(quo) - 1, -1, -1):
                quo[i] = num[i + len(den) - 1]      # Phi_d is monic
                for j, c in enumerate(den):
                    num[i + j] -= quo[i] * c
            assert not any(num), (n, d)
            num = quo
    return tuple(num)


@lru_cache(maxsize=None)
def _power_table(e: int) -> np.ndarray:
    """Row m: the power-basis numerators of zeta_e^m, x^m reduced mod Phi_e."""
    mod = _cyclotomic_poly(e)
    phi = len(mod) - 1
    rows, cur = [], [1] + [0] * (phi - 1)
    for _ in range(e):
        rows.append(cur)
        top = cur[-1]
        cur = [0] + cur[:-1]
        cur = [c - top * m for c, m in zip(cur, mod)]
    out = np.array(rows, dtype=np.int64)
    out.setflags(write=False)
    return out


def _orders(g) -> np.ndarray:
    order = np.zeros(g.order, dtype=np.int64)
    x = np.arange(g.order)
    cur = x
    for t in range(1, g.order + 1):
        order[(cur == g.identity) & (order == 0)] = t
        cur = g.mul[cur, x]
    return order


def _powers(g, x: int, m: int) -> list[int]:
    out = [g.identity]
    for _ in range(m - 1):
        out.append(int(g.mul[out[-1], x]))
    return out


# an independent table is (e, coeffs): coeffs[i, x, t] is the multiplicity of
# zeta_e^t in chi_i(x), for every element x

def _cyclic(g):
    n = g.order
    gen = int(np.flatnonzero(_orders(g) == n)[0])
    coeffs = np.zeros((n, n, n), dtype=np.int64)
    for m, x in enumerate(_powers(g, gen, n)):
        coeffs[np.arange(n), x, np.arange(n) * m % n] = 1
    return n, coeffs


def _dihedral(g):
    n = g.order // 2
    e = lcm(2, n)
    r = int(np.flatnonzero(_orders(g) == n)[0])
    rot = _powers(g, r, n)
    s0 = next(x for x in range(g.order) if x not in rot)
    # the reflections s0 r^m
    refl = [int(g.mul[s0, x]) for x in rot]
    rows = []
    # linear characters: chi(r) = a, chi(s0) = b, with a = -1 for even n only
    for a, b in [(1, 1), (1, -1)] + ([(-1, 1), (-1, -1)] if n % 2 == 0 else []):
        row = np.zeros((g.order, e), dtype=np.int64)
        for m in range(n):
            row[rot[m], 0] = a ** m
            row[refl[m], 0] = b * a ** m
        rows.append(row)
    for j in range(1, (n + 1) // 2):
        row = np.zeros((g.order, e), dtype=np.int64)
        for m in range(n):
            row[rot[m], j * m * (e // n) % e] += 1
            row[rot[m], -j * m * (e // n) % e] += 1
        rows.append(row)
    return e, np.stack(rows)


def _klein(g):
    a, b = [x for x in range(g.order) if x != g.identity][:2]
    coords = {g.identity: (0, 0), a: (1, 0), b: (0, 1),
              int(g.mul[a, b]): (1, 1)}
    coeffs = np.zeros((4, 4, 2), dtype=np.int64)
    for i, (s, t) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        for x, (u, v) in coords.items():
            coeffs[i, x, (s * u + t * v) % 2] = 1
    return 2, coeffs


def _quaternion(g):
    orders = _orders(g)
    (z,) = np.flatnonzero(orders == 2).tolist()
    fours = np.flatnonzero(orders == 4).tolist()
    pairs = sorted({tuple(sorted((u, int(g.mul[u, z])))) for u in fours})
    rows = [np.zeros((8, 4), dtype=np.int64) for _ in range(5)]
    for i in range(4):
        rows[i][[g.identity, z], 0] = 1
    for i, pair in enumerate(pairs):
        rows[0][list(pair), 0] = 1
        for j in range(3):
            rows[j + 1][list(pair), 0] = 1 if i == j else -1
    rows[4][g.identity, 0] = 2
    rows[4][z, 0] = -2
    return 4, np.stack(rows)


# S4 by (element order, centralizer size): trivial, sign, the 2-dimensional,
# the standard and the standard times sign (Isaacs, Character Theory of
# Finite Groups, or any table of S4)
_S4 = {(1, 24): (1, 1, 2, 3, 3), (2, 4): (1, -1, 0, 1, -1),
       (2, 8): (1, 1, 2, -1, -1), (3, 3): (1, 1, -1, 0, 0),
       (4, 4): (1, -1, 0, -1, 1)}


def _symmetric4(g):
    orders = _orders(g)
    x = np.arange(g.order)
    coeffs = np.zeros((5, 24, 12), dtype=np.int64)
    for y in range(24):
        cent = int(np.count_nonzero(g.mul[x, y] == g.mul[y, x]))
        coeffs[:, y, 0] = _S4[(int(orders[y]), cent)]
    return 12, coeffs


def _base_table(name: str, g):
    if name[0] == "C" or name in ("S1", "S2"):
        return _cyclic(g)
    if name == "D2":
        return _klein(g)
    if name[0] == "D" or name == "S3":
        return _dihedral(g)
    return {"Q8": _quaternion, "S4": _symmetric4}[name](g)


def _tensor(left, right):
    """(chi x psi)(a, b) = chi(a) psi(b), element a * |B| + b, row i * kB + j:
    a product of sums of roots of unity, a cyclic convolution."""
    (ea, a), (eb, b) = left, right
    e = lcm(ea, eb)
    la = np.zeros(a.shape[:2] + (e,), dtype=np.int64)
    lb = np.zeros(b.shape[:2] + (e,), dtype=np.int64)
    la[..., ::e // ea] = a
    lb[..., ::e // eb] = b
    out = np.zeros((len(a), len(b), a.shape[1], b.shape[1], e), dtype=np.int64)
    for s in np.flatnonzero(la.any(axis=(0, 1))):
        out += (la[:, None, :, None, s, None]
                * np.roll(lb, s, axis=-1)[None, :, None])
    return e, out.reshape(len(a) * len(b), a.shape[1] * b.shape[1], e)


def independent_table(name: str):
    tables = [_base_table(part, _CAT.group(part)) for part in name.split("x")]
    out = tables[0]
    for t in tables[1:]:
        out = _tensor(out, t)
    return out


def _assert_tables_match(name: str):
    g = _CAT.group(name)
    e, coeffs = independent_table(name)
    assert g.exponent() == e
    nums = coeffs @ _power_table(e)
    part = conjugacy_classes(g)
    by_class = nums[:, list(part.representatives)]
    # the closed forms are class functions for the group's own classes
    assert np.array_equal(by_class[:, part.class_of], nums)
    table = character_table(g)
    assert all(row.e == e and row.den == 1 for row in table)
    dixon = np.stack([row.nums for row in table])
    assert dixon.shape == by_class.shape
    want = sorted(row.tobytes() for row in by_class)
    assert len(set(want)) == len(want)
    assert sorted(row.tobytes() for row in dixon.astype(np.int64)) == want


_CAT = Catalog()
_BASE = _CAT.base_names()


def _products():
    """Every product that the project's tests, benchmark or docs name and
    whose table is within the caps, and every two-factor product of base
    groups of order 2 or more, up to order 48."""
    named = ["C2xC2", "C2xC3", "S3xS3", "C3xS3", "S3xC2", "S3xC4", "S3xC6",
             "D4xC2", "D6xC2", "D6xC3", "Q8xC2", "Q8xC3", "S4xC2", "S4xC3",
             "S3xD4", "D4xS3", "D12xC2", "D12xC3", "C6xC6", "S3xS3xC2",
             "D4xC2xC3", "Q8xS3", "S4xS3", "S4xC2xC3", "Q8xC3xC3", "D6xD6",
             "S3xS3xS3", "C4xC4xC3", "Q8xS3xC4", "C6xC6xC6"]
    pairs = [f"{a}x{b}" for i, a in enumerate(_BASE) for b in _BASE[i:]
             if _CAT.group(a).order * _CAT.group(b).order <= 48
             and 1 < _CAT.group(a).order and 1 < _CAT.group(b).order]
    return sorted(set(named) | set(pairs), key=lambda n: (len(n), n))


_PRODUCTS = _products()

# S7 takes about 3 s and a few hundred MB, most of it to build the group
_SYMMETRIC = ["S5", "S6", pytest.param("S7", marks=pytest.mark.slow)]


def _group(name: str):
    """A catalog group, or S5 to S7 from a transposition and an n-cycle."""
    if name not in ("S5", "S6", "S7"):
        return _CAT.group(name)
    n = int(name[1:])
    return build_from_permutations(
        n, [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)], name=name)


def _partitions(n: int, top: int | None = None):
    """The partitions of n into parts of at most top, largest part first."""
    if n == 0:
        yield ()
    for part in range(min(n, top or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


@lru_cache(maxsize=None)
def _murnaghan_nakayama(beta: frozenset, cycles: tuple[int, ...]) -> int:
    """chi^lambda at the cycle type `cycles`, for lambda of l parts given by
    its beta set {lambda_i + l - i}: removing a border strip of length r
    moves one bead from b to the free position b - r, with sign
    (-1)^(beads between)."""
    if not cycles:
        return 1
    r, rest = cycles[0], cycles[1:]
    return sum((-1) ** sum(b - r < c < b for c in beta)
               * _murnaghan_nakayama(beta - {b} | {b - r}, rest)
               for b in beta if b >= r and b - r not in beta)


def _cycle_type(label: str, n: int) -> tuple[int, ...]:
    """The cycle type of a permutation from its cycle label, such as
    "(0 1 2)(3 4)" or "e", padded with fixed points to n."""
    cycles = [len(c.split()) for c in label.replace("e", "").split(")") if c]
    return tuple(sorted(cycles + [1] * (n - sum(cycles)), reverse=True))


@pytest.mark.parametrize("name", _SYMMETRIC)
def test_symmetric_tables_match_murnaghan_nakayama(name):
    g, n = _group(name), int(name[1:])
    part = conjugacy_classes(g)
    types = [{_cycle_type(g.label(x), n) for x in cls} for cls in part.classes]
    # the classes of S_n are its cycle types
    assert all(len(t) == 1 for t in types)
    types = [t.pop() for t in types]
    assert sorted(types) == sorted(_partitions(n))
    betas = [frozenset(p + len(lam) - i for i, p in enumerate(lam, 1))
             for lam in _partitions(n)]
    want = sorted(tuple(_murnaghan_nakayama(beta, t) for t in types)
                  for beta in betas)
    table = character_table(g)
    assert all(row.den == 1 and not row.nums[:, 1:].any() for row in table)
    assert sorted(tuple(row.nums[:, 0].tolist()) for row in table) == want


@pytest.mark.parametrize("name", _BASE)
def test_catalog_groups_match_their_closed_forms(name):
    _assert_tables_match(name)


@pytest.mark.parametrize("name", _PRODUCTS)
def test_catalog_products_match_their_tensor_products(name):
    _assert_tables_match(name)


@pytest.mark.parametrize("name", _BASE + _PRODUCTS + _SYMMETRIC)
def test_frobenius_schur_count_matches_the_involutions(name):
    # nu(chi) = (1/|G|) sum_g chi(g^2) is 1, 0 or -1, and
    # sum_chi nu(chi) chi(1) = #{g : g^2 = 1}
    g = _group(name)
    part = conjugacy_classes(g)
    reps = np.array(part.representatives)
    squares = part.class_of[g.mul[reps, reps]]
    table = character_table(g)
    nums = np.stack([row.nums for row in table]).astype(object)
    sizes = np.array(part.sizes, dtype=object)
    sums = (sizes[None, :, None] * nums[:, squares]).sum(axis=1)
    assert not sums[:, 1:].any()
    nu = [int(s) // g.order for s in sums[:, 0]]
    assert all(int(s) % g.order == 0 for s in sums[:, 0])
    assert set(nu) <= {-1, 0, 1}
    involutions = int(np.count_nonzero(
        g.mul[np.arange(g.order), np.arange(g.order)] == g.identity))
    assert sum(v * d for v, d in zip(nu, table.degrees())) == involutions


@pytest.mark.parametrize("name", _BASE + _PRODUCTS + _SYMMETRIC)
def test_power_maps_are_the_galois_action(name):
    # g^m for m prime to |G| generates <g>, and chi(g^m) is chi(g) with
    # zeta_e -> zeta_e^m; g^m and sigma_m depend on m mod e = exp(G) only, and
    # m is prime to |G| exactly when it is prime to e
    g = _group(name)
    part = conjugacy_classes(g)
    reps = np.array(part.representatives)
    table = character_table(g)
    e = table[0].e
    nums = np.stack([row.nums for row in table])
    power = np.full(len(reps), g.identity)
    for m in range(1, e + 1):
        power = g.mul[power, reps]
        if gcd(m, e) == 1:
            # entries of both are small, so the int64 product is exact
            assert np.array_equal(nums[:, part.class_of[power]],
                                  nums @ _galois_matrix(e, m))


def test_own_cyclotomic_polynomials():
    assert _cyclotomic_poly(1) == (-1, 1)
    assert _cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    assert _cyclotomic_poly(15) == (1, -1, 0, 1, -1, 1, 0, -1, 1)
    for n in range(1, 40):
        assert len(_cyclotomic_poly(n)) - 1 == sum(
            1 for m in range(1, n + 1) if gcd(m, n) == 1)
