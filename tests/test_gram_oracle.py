"""The evaluation Gram kernels against the coefficient-correlation oracle.

`cyclotomic.gram` and `gram_diagonal` work modulo primes P = 1 (mod e) at
the primitive e-th roots of unity; `gram_oracle` forms every coefficient
product over the integers.  They must agree in values and dtype
on every input: both widths, conductors 1 to 120, negative and zero weights,
and entries large enough to take several primes and Python ints.  So must
the four Gram products of a normal pair, and Gallagher's norms must equal
the oracle's norms of `multiply`'s products.  The normal pairs of one group
take their Gram products from one pass for the whole group, and their
verdicts and Gallagher's products from one array pass each; each must equal
the same pair built alone, in values and dtype.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charcond import characters, clifford, cyclotomic
from charcond.arith import is_prime
from charcond.catalog import Catalog
from charcond.characters import (ClassFunction, character_table,
                                 inner_product_matrix)
from charcond.cyclotomic import (_bound, _evaluation_data, _matmul_mod, _phi,
                                 gram, gram_diagonal, lift, multiply, scaled)
from charcond.errors import InternalContradiction
from charcond.groups import (build_from_permutations, normal_subgroups,
                             parse_group_text, quotient, row_keys, subgroup)
from gram_oracle import oracle_diagonal, oracle_gram


def _same(got, want):
    return got.dtype == want.dtype and np.array_equal(got, want)


def _rows(rng, n, k, w, bits, zeros):
    """n x k x w integers of up to `bits` bits with a share of zeros, as
    int64 when they fit and Python ints otherwise."""
    top = 1 << min(bits, 62)
    a = rng.integers(-top + 1, top, (n, k, w)).astype(object)
    if bits > 62:
        a = a * (1 << (bits - 62)) + rng.integers(0, 8, (n, k, w))
    a[rng.random((n, k, w)) < zeros] = 0
    return a.astype(cyclotomic.int_dtype(cyclotomic._absmax(a)))


@st.composite
def gram_inputs(draw):
    e = draw(st.integers(1, 120))
    w = draw(st.sampled_from([_phi(e), e]))
    ka, kb = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    k = draw(st.integers(1, 5))
    bits = draw(st.sampled_from([1, 3, 12, 24, 40, 100]))
    zeros = draw(st.sampled_from([0.0, 0.5, 0.9]))
    weights = draw(st.lists(st.integers(-10, 10), min_size=k, max_size=k))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return (_rows(rng, ka, k, w, bits, zeros), _rows(rng, kb, k, w, bits, zeros),
            weights, e)


@settings(max_examples=200, deadline=None)
@given(gram_inputs())
def test_gram_matches_the_oracle(case):
    a, b, weights, e = case
    got = gram(a, b, weights, e)
    assert got.shape == (len(a), len(b), _phi(e))
    assert _same(got, oracle_gram(a, b, weights, e))


@settings(max_examples=150, deadline=None)
@given(gram_inputs())
def test_diagonal_form_is_the_diagonal_of_the_full_gram(case):
    a, _, weights, e = case
    got = gram_diagonal(a, weights, e)
    i = np.arange(len(a))
    assert _same(got, gram(a, a, weights, e)[i, i])
    assert _same(got, oracle_diagonal(a, weights, e))


@pytest.mark.parametrize("bits, dtype, primes", [
    (12, np.int64, 2),     # a bound past one prime and below 2^62
    (40, object, 4),       # entries in int64, a bound past 2^62
    (100, object, 9),      # entries and bound as Python ints
])
def test_large_entries_take_several_primes(bits, dtype, primes):
    rng = np.random.default_rng(bits)
    a = _rows(rng, 3, 4, 120, bits, 0.0)
    weights = [5, -3, 0, 7]
    top = cyclotomic._absmax(a)
    bound = _bound(top, top, sum(map(abs, weights)), 120, a.shape[2])
    # the primes whose product first exceeds twice the bound
    used, m = 0, 1
    while m <= 2 * bound:
        m *= _evaluation_data(120, used).prime
        used += 1
    assert used == primes
    got = gram(a, a[::-1], weights, 120)
    assert got.dtype == dtype
    assert _same(got, oracle_gram(a, a[::-1], weights, 120))
    assert _same(gram_diagonal(a, weights, 120),
                 oracle_diagonal(a, weights, 120))


def test_evaluation_primes_are_1_mod_e_and_below_2_to_26():
    for e in (1, 2, 23, 24, 120):
        ps = [_evaluation_data(e, i).prime for i in range(3)]
        assert all((p - 1) % e == 0 and p < 1 << 26 for p in ps)
        assert ps == sorted(ps, reverse=True) and len(set(ps)) == 3


def test_long_contractions_are_chunked_exactly():
    # 5000 products of (P - 1)^2 would overflow one int64 sum
    p = _evaluation_data(1, 0).prime
    x, y = np.full((1, 5000), p - 1), np.full((5000, 1), p - 1)
    assert _matmul_mod(x, y, p)[0, 0] == 5000 * (p - 1) ** 2 % p
    rng = np.random.default_rng(5)
    a = _rows(rng, 2, 5000, 2, 24, 0.0)
    weights = rng.integers(-9, 10, 5000).tolist()
    assert _same(gram(a, a[::-1], weights, 4), oracle_gram(a, a[::-1], weights, 4))


def test_empty_inputs_give_empty_results():
    a = np.arange(2 * 3 * 4).reshape(2, 3, 4)
    assert gram(a, a[:0], [1, 2, 3], 5).shape == (2, 0, 4)
    assert gram(a[:0], a, [1, 2, 3], 5).shape == (0, 2, 4)
    assert gram_diagonal(a[:0], [1, 2, 3], 5).shape == (0, 4)
    g = Catalog().group("S3")
    rows = list(character_table(g))
    assert inner_product_matrix(rows, []) == [[], [], []]
    assert inner_product_matrix([], rows) == []
    assert inner_product_matrix([], []) == []
    reg = ClassFunction(g, [6, 0, 0])
    assert inner_product_matrix([reg], rows) == [[1, 1, 2]]


def _pair_products(pair):
    """The pair's four Gram products and the oracle's, in that order."""
    e, wg, wh = pair.e, pair.sizes_g.tolist(), pair.sizes_h.tolist()
    res = pair.tg[:, pair.cols]
    return [(pair.res_norm, oracle_diagonal(res, wh, e)),
            (pair.res_gram, oracle_gram(res, pair.th, wh, e)),
            (pair.ind_norm, oracle_diagonal(pair.ind, wg, e)),
            (pair.ind_gram, oracle_gram(pair.tg, pair.ind, wg, e))]


def _gallagher_oracle(pair, thetas, rows, psi):
    """Gallagher's checks by `multiply` and the oracle: whether the products
    chi_r * psi_i of each row repeat, whether |H| times their sum differs
    from ind, and their norms."""
    shape = (len(rows),) + psi.shape
    prods = multiply(np.broadcast_to(pair.tg[rows][:, None], shape),
                     np.broadcast_to(psi, shape), pair.e)
    norms = oracle_diagonal(prods.reshape((-1,) + shape[2:]),
                            pair.sizes_g.tolist(), pair.e)
    return ([len(set(row_keys(x))) < len(psi) for x in prods],
            (pair.ind[thetas] != scaled(prods.sum(axis=1), pair.order_h)
             ).any(axis=(1, 2)).tolist(), norms.reshape(shape[:2] + (-1,)))


def _oracle_groups():
    """The catalog to order 24 and four larger products, from a fresh
    catalog."""
    cat = Catalog()
    return [g for _, g in cat.groups_up_to(24)] + [
        cat.group(name) for name in ("Q8xS3xC4", "S3xS3xS3", "C4xC4xC3", "S4xS3")]


def test_normal_pairs_match_the_oracle(monkeypatch):
    # every proper normal pair of the catalog to order 24 and of four larger
    # products: the four Gram products in values and dtype, and Gallagher's
    # checks under prime index, as the table of G/H stands and with its last
    # row read as its first, so that products repeat and sums differ
    groups = _oracle_groups()
    real = characters._inflated_table

    def repeated(qmap):
        psi = real(qmap).copy()
        psi[-1] = psi[0]
        return psi

    pairs, gallagher, flagged = 0, 0, set()
    for g in groups:
        for s in normal_subgroups(g):
            if s.order == g.order:
                continue
            pair, where = clifford._pair(s), (g.name, s.order)
            pairs += 1
            for got, want in _pair_products(pair):
                assert _same(got, want), where
            if not is_prime(s.index):
                continue
            _, qmap = quotient(g, s)
            thetas = np.flatnonzero(pair.stab == g.order)
            rows = pair.extensions(thetas).argmax(axis=0).tolist()
            for inflated in (real, repeated):
                monkeypatch.setattr(clifford, "_inflated_table", inflated)
                psi = lift(inflated(qmap), qmap.group.exponent(), pair.e)
                got = clifford._products([s])[0][2:]
                want = _gallagher_oracle(pair, thetas, rows, psi)
                assert got[0].tolist() == want[0], where
                assert got[1].tolist() == want[1], where
                assert np.array_equal(got[2], want[2]), where
                flagged.add((inflated is real, any(want[0]), any(want[1])))
            gallagher += 1
    assert (pairs, gallagher) == (363, 91)
    # the real tables pass, and every repeated row repeats and differs
    assert flagged == {(True, False, False), (False, True, True)}


_S7 = "perm 7\ngen 1 0 2 3 4 5 6\ngen 1 2 3 4 5 6 0\n"


def test_a_pair_takes_three_primes_where_its_bounds_need_them(monkeypatch):
    # A7 in S7: exponent 420 and degrees up to 35, so bounds of 40 to 66
    # bits on the pair's Gram numerators, and Python ints for the norms of
    # the inductions; one pass takes the three primes below 2^26 that the
    # largest bound needs, and so does Gallagher's
    g = parse_group_text(_S7)
    s = next(s for s in normal_subgroups(g) if s.index == 2)
    real, used = cyclotomic._evaluation_data, []

    def counted(e, i):
        used.append(i)
        return real(e, i)
    monkeypatch.setattr(cyclotomic, "_evaluation_data", counted)
    pair = clifford._pair(s)
    assert used == [0, 1, 2]
    for got, want in _pair_products(pair):
        assert _same(got, want)
    assert [got.dtype for got, _ in _pair_products(pair)] == [
        np.int64, np.int64, object, np.int64]
    _, qmap = quotient(g, s)
    thetas = np.flatnonzero(pair.stab == g.order)
    rows = pair.extensions(thetas).argmax(axis=0).tolist()
    psi = lift(characters._inflated_table(qmap), 2, pair.e)
    used.clear()
    got = clifford._products([s])[0][2:]
    assert used == [0, 1, 2]
    want = _gallagher_oracle(pair, thetas, rows, psi)
    assert (got[0].tolist(), got[1].tolist()) == (want[0], want[1])
    assert np.array_equal(got[2], want[2])


_PRODUCTS = ("res_norm", "res_gram", "ind_norm", "ind_gram")
# every verdict array of a pair
_VERDICTS = ("mult", "matches", "clifford", "checks", "induction", "reciprocity")


def _fresh(s):
    """s again, on a subgroup cache of its own, which holds no pair."""
    return subgroup(s.parent, s.elements)


def _proper(g):
    return [_fresh(s) for s in normal_subgroups(g) if s.order < g.order]


def _same_products(got, want):
    """The four Gram products equal in values and dtype."""
    return all(_same(getattr(got, n), getattr(want, n)) for n in _PRODUCTS)


def _c105():
    return build_from_permutations(
        105, [tuple((i + 1) % 105 for i in range(105))], name="C105")


def test_one_pass_per_group_equals_each_pair_built_alone(monkeypatch):
    # the proper normal pairs of each group built together, with one Gram
    # pass, against each pair built alone by `_pair` on a fresh cache: the
    # four Gram products, every verdict array and the Frobenius detail in
    # values and dtype, and Gallagher's products of the pairs of prime
    # index from one pass against each pair's own, for the catalog to order
    # 24, four larger products and C105, where a lift grows numerators
    real, batches = clifford._NormalPairs.__init__, []

    def counted(self, g, segments):
        batches.append(len(segments))
        real(self, g, segments)
    monkeypatch.setattr(clifford._NormalPairs, "__init__", counted)
    pairs, gallagher = 0, 0
    for g in _oracle_groups() + [_c105()]:
        subs = _proper(g)
        batches.clear()
        clifford._pairs(subs)
        assert batches == ([len(subs)] if subs else [])
        alone = [_fresh(s) for s in subs]
        for s, t in zip(subs, alone):
            got, want = clifford._pair.peek(s), clifford._pair(t)
            assert got is not None and _same_products(got, want), (g.name, s.order)
            for name in _VERDICTS:
                assert _same(getattr(got, name), getattr(want, name)), (g.name, name)
            assert got.frobenius() == want.frobenius()
        prime = [k for k, s in enumerate(subs) if is_prime(s.index)]
        together = clifford._products([subs[k] for k in prime])
        for k, got in zip(prime, together):
            want = clifford._products([alone[k]])[0]
            assert len(got) == len(want) == 5
            assert all(_same(np.asarray(x), np.asarray(y)) for x, y in zip(got, want))
        pairs, gallagher = pairs + len(subs), gallagher + len(prime)
    assert (pairs, gallagher) == (370, 94)


def test_a_batch_takes_the_primes_of_its_largest_bound(monkeypatch):
    # A7 in S7 needs three primes; the trivial subgroup, in the same batch,
    # shares them, and each pair keeps the dtypes of its own bounds
    g = parse_group_text(_S7)
    triv, a7 = _proper(g)
    real, used = cyclotomic._evaluation_data, []

    def counted(e, i):
        used.append(i)
        return real(e, i)
    monkeypatch.setattr(cyclotomic, "_evaluation_data", counted)
    clifford._pairs([triv, a7])
    assert used == [0, 1, 2]
    monkeypatch.undo()
    pair = clifford._pair.peek(a7)
    assert [getattr(pair, n).dtype for n in _PRODUCTS] == [
        np.int64, np.int64, object, np.int64]
    for got, want in _pair_products(pair):
        assert _same(got, want)
    assert _same_products(clifford._pair.peek(triv), clifford._pair(_fresh(triv)))


def test_a_pair_whose_arrays_raise_is_left_out_of_the_pass(monkeypatch):
    # the other pairs are built together and equal their lone builds; the
    # refused one is not kept, and `_pair` raises its error again
    g = Catalog().group("D4")
    subs = _proper(g)
    # the rotations: the cyclic subgroup of order 4
    rot = next(s for s in subs if s.order == 4 and s.as_group().exponent() == 4)
    real = clifford._segment

    def refused(s):
        if s.elements == rot.elements:
            raise InternalContradiction("pair arrays refused")
        return real(s)
    monkeypatch.setattr(clifford, "_segment", refused)
    clifford._pairs(subs)
    assert clifford._pair.peek(rot) is None
    others = [s for s in subs if s is not rot]
    assert len(others) == len(subs) - 1 == 4
    for s in others:
        assert _same_products(clifford._pair.peek(s), clifford._pair(_fresh(s)))
    with pytest.raises(InternalContradiction, match="pair arrays refused"):
        clifford._pair(rot)


def test_a_pass_that_raises_keeps_no_pair(monkeypatch):
    g = Catalog().group("D4")
    subs = _proper(g)

    def refused(*args):
        raise InternalContradiction("pass refused")
    monkeypatch.setattr(clifford, "_crt", refused)
    clifford._pairs(subs)
    assert [clifford._pair.peek(s) for s in subs] == [None] * len(subs)
    monkeypatch.undo()
    clifford._pairs(subs)
    assert all(clifford._pair.peek(s) is not None for s in subs)
