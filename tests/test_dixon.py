"""Dixon's method over F_p: batched eigenvalue search, null spaces and lift.

The oracles are the pure-Python routines the numpy code replaced: an RREF
null-space solver and an eigenspace split that tries every lambda in F_p
with one kernel solve each.  Character tables are also recomputed over a
second prime; the exact rows must not depend on the prime.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charcond import characters
from charcond.arith import is_prime
from charcond.catalog import Catalog
from charcond.characters import character_table
from charcond.errors import InternalContradiction
from charcond.groups import ConjugacyPartition


def oracle_mod_kernel(rows, ncols, p):
    """Basis of the null space of a matrix over F_p (RREF back-substitution)."""
    m = [r[:] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] % p), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(v * inv) % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] % p:
                f = m[i][c]
                m[i] = [(v - f * w) % p for v, w in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-m[i][fc]) % p
        basis.append(vec)
    return basis


def oracle_split_space(mat, basis, p):
    """Eigenspaces of `mat` in the span of `basis`, one kernel per lambda."""
    k = len(mat)
    d = len(basis)
    img = [[sum(mat[r][c] * vec[c] for c in range(k)) % p for r in range(k)]
           for vec in basis]
    out = []
    found = 0
    for lam in range(p):
        rows = [[(img[j][r] - lam * basis[j][r]) % p for j in range(d)]
                for r in range(k)]
        ker = oracle_mod_kernel(rows, d, p)
        if ker:
            out.append([[sum(coeffs[j] * basis[j][r] for j in range(d)) % p
                         for r in range(k)] for coeffs in ker])
            found += len(ker)
            if found == d:
                break
    if found != d:
        raise InternalContradiction("class algebra failed to split over F_p")
    return out


def rank(vectors, ncols, p):
    return ncols - len(oracle_mod_kernel([list(v) for v in vectors], ncols, p))


_primes = st.sampled_from([2, 3, 5, 7, 13])


@st.composite
def stacks(draw):
    p = draw(_primes)
    n, k, d = (draw(st.integers(1, 6)) for _ in range(3))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=n * k * d,
                            max_size=n * k * d))
    # low rank is the interesting case: repeat rows and zero columns
    stack = np.array(entries, dtype=np.int64).reshape(n, k, d)
    if draw(st.booleans()):
        stack[:, -1] = stack[:, 0] * draw(st.integers(0, p - 1)) % p
    if draw(st.booleans()):
        stack[:, :, draw(st.integers(0, d - 1))] = 0
    return stack, p


@settings(max_examples=300, deadline=None)
@given(stacks())
def test_nullities_and_null_spaces_match_the_oracle(case):
    stack, p = case
    d = stack.shape[2]
    got = characters._nullities(stack, p)
    for member, nullity in zip(stack, got):
        want = oracle_mod_kernel(member.tolist(), d, p)
        assert nullity == len(want)
        assert characters._null_space(member, p).tolist() == want


def _inverse(m, p):
    """Inverse of an invertible matrix mod p, column by column by the oracle."""
    k = len(m)
    cols = [oracle_mod_kernel(np.concatenate(
        (m, -np.eye(k, dtype=np.int64)[:, [c]]), axis=1).tolist(), k + 1, p)[0]
        for c in range(k)]
    return np.array([col[:k] for col in cols], dtype=np.int64).T % p


@st.composite
def eigen_problems(draw):
    """A diagonalizable matrix mod p and an invariant subspace, or noise."""
    p = draw(_primes)
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pm = rng.integers(0, p, (k, k))
    while rank(pm.T.tolist(), k, p) < k:
        pm = rng.integers(0, p, (k, k))
    lams = rng.integers(0, p, k)
    if draw(st.booleans()):
        mat = pm @ np.diag(lams) @ _inverse(pm, p) % p
    else:
        mat = rng.integers(0, p, (k, k))
    chosen = rng.permutation(k)[:draw(st.integers(1, k))]
    basis = pm[:, chosen].T
    mix = rng.integers(0, p, (len(chosen), len(chosen)))
    if rank((mix @ basis % p).tolist(), k, p) == len(chosen):
        basis = mix @ basis % p
    return mat.astype(np.int64), basis.astype(np.int64), p


@settings(max_examples=200, deadline=None)
@given(eigen_problems())
def test_eigenspace_split_matches_the_oracle(problem):
    mat, basis, p = problem
    try:
        want = oracle_split_space(mat.tolist(), basis.tolist(), p)
    except InternalContradiction:
        with pytest.raises(InternalContradiction):
            characters._split_space(mat, basis, p)
        return
    got = characters._split_space(mat, basis, p)
    k = mat.shape[0]
    assert len(got) == len(want)
    for space, ref in zip(got, want):
        assert len(space) == len(ref)
        both = space.tolist() + ref
        assert rank(space.tolist(), k, p) == rank(ref, k, p) == rank(both, k, p)


def test_eigenvalue_search_chunks_and_solves_once_per_eigenvalue(monkeypatch):
    solves, pieces, widest = [], [], []
    null_space, split, nullities = (characters._null_space,
                                    characters._split_space,
                                    characters._nullities)

    def counted_null_space(a, p):
        solves.append(1)
        return null_space(a, p)

    def counted_split(mat, basis, p):
        out = split(mat, basis, p)
        pieces.append(len(out))
        return out

    def sized_nullities(stack, p):
        widest.append(stack.size)
        return nullities(stack, p)

    monkeypatch.setattr(characters, "_null_space", counted_null_space)
    monkeypatch.setattr(characters, "_split_space", counted_split)
    monkeypatch.setattr(characters, "_nullities", sized_nullities)
    rows = characters._dixon_rows(Catalog().group("Q8xS3xC4"))
    assert len(rows) == 60
    assert len(solves) == sum(pieces) == 441
    assert max(widest) <= characters._LAMBDA_CHUNK


def _next_dixon_prime(exponent, order):
    p = _DIXON_PRIME(exponent, order)
    step = exponent if exponent > 1 else 1
    p += step
    while not is_prime(p):
        p += step
    _USED.append(p)
    return p


_DIXON_PRIME = characters._dixon_prime
_USED = []
_CAT = Catalog()
_SECOND_PRIME_GROUPS = ([name for name, _ in _CAT.groups_up_to(24)]
                        + ["C4xC4xC3", "Q8xS3xC4"])


@pytest.mark.parametrize("name", _SECOND_PRIME_GROUPS)
def test_rows_do_not_depend_on_the_prime(name, monkeypatch):
    g = _CAT.group(name)
    want = tuple(row.values for row in character_table(g))
    monkeypatch.setattr(characters, "_dixon_prime", _next_dixon_prime)
    _USED.clear()
    assert characters._dixon_rows(g) == want
    assert _USED and _USED[0] != _DIXON_PRIME(g.exponent(), g.order)


@pytest.mark.parametrize("name", ["S3", "C12", "Q8xC3", "S4"])
def test_object_dtype_path_gives_the_same_rows(name, monkeypatch):
    g = _CAT.group(name)
    want = tuple(row.values for row in character_table(g))
    monkeypatch.setattr(characters, "int_dtype", lambda bound: object)
    assert characters._dixon_rows(g) == want


def test_structure_constants_keep_the_class_constancy_check(monkeypatch):
    g = _CAT.group("S3")
    real = characters.conjugacy_classes(g)
    # split the 3-cycles: x y for x, y in {c} is c^2, outside its class
    c, c2 = real.classes[1]
    classes = (real.classes[0], (c,), (c2,) + real.classes[2])
    class_of = np.empty(g.order, dtype=np.int64)
    for i, cls in enumerate(classes):
        class_of[list(cls)] = i
    fake = ConjugacyPartition(classes, class_of)
    monkeypatch.setattr(characters, "conjugacy_classes", lambda grp: fake)
    with pytest.raises(InternalContradiction, match="class-constant"):
        characters._dixon_rows(g)
