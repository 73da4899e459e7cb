"""Dixon's method over F_p: row reduction, eigenspace splits and lift.

The oracles are pure-Python routines: an RREF null-space solver and an
eigenspace split that tries every lambda in F_p with one kernel solve each
on the full space, then writes a row in the eigenvectors found.  Character
tables are also recomputed over a second prime; the exact rows must not
depend on the prime.
"""

import re
import subprocess
import sys
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charcond import characters
from charcond.arith import is_prime
from charcond.catalog import Catalog
from charcond.cyclotomic import values
from charcond.errors import InternalContradiction, TooLarge
from charcond.groups import ConjugacyPartition, build_from_permutations


def oracle_rref(rows, ncols, p):
    """Reduced row echelon form over F_p and its pivot columns."""
    m = [[v % p for v in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
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
    return m, pivots


def oracle_mod_kernel(rows, ncols, p):
    """Basis of the null space of a matrix over F_p (RREF back-substitution)."""
    m, pivots = oracle_rref(rows, ncols, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-m[i][fc]) % p
        basis.append(vec)
    return basis


def oracle_split_space(mat, row, p):
    """The projections of `row` onto the eigenspaces of v -> v mat^T that it
    meets, in order of eigenvalue: one kernel of mat - lam per lambda, then
    one solve for the row's coordinates in the eigenvectors found."""
    k = len(mat)
    found = [(lam, vec) for lam in range(p) for vec in oracle_mod_kernel(
        [[(mat[r][c] - lam * (r == c)) % p for c in range(k)] for r in range(k)],
        k, p)]
    if len(found) != k:
        raise InternalContradiction("class algebra failed to split over F_p")
    # row = sum_i coords[i] found[i]: the kernel of [found^T | -row^T]
    coords = oracle_mod_kernel(
        [[vec[r] for _, vec in found] + [-row[r] % p] for r in range(k)],
        k + 1, p)[0]
    out = []
    for lam in sorted({lam for lam, _ in found}):
        proj = [sum(c * vec[r] for c, (mu, vec) in zip(coords, found) if mu == lam)
                % p for r in range(k)]
        if any(proj):
            out.append(proj)
    return out


def rank(vectors, ncols, p):
    return ncols - len(oracle_mod_kernel(np.asarray(vectors).tolist(), ncols, p))


_primes = st.sampled_from([2, 3, 5, 7, 13])


@st.composite
def matrices(draw):
    p = draw(_primes)
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=rows * cols,
                            max_size=rows * cols))
    # low rank is the interesting case: repeat rows and zero columns
    a = np.array(entries, dtype=np.int64).reshape(rows, cols)
    if draw(st.booleans()):
        a[-1] = a[0] * draw(st.integers(0, p - 1)) % p
    if draw(st.booleans()):
        a[:, draw(st.integers(0, cols - 1))] = 0
    return a, p


def _inverses(p):
    return np.array([pow(x, p - 2, p) for x in range(p)], dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_nullities_and_null_spaces_match_the_oracle(case):
    # a null space is read off the reduced form, so an equal reduced form
    # and pivots give the oracle's nullity and kernel basis
    a, p = case
    cols = a.shape[1]
    got, mask = characters._row_reduce(a, p, _inverses(p))
    want, pivots = oracle_rref(a.tolist(), cols, p)
    assert np.flatnonzero(mask).tolist() == pivots
    assert cols - mask.sum() == len(oracle_mod_kernel(a.tolist(), cols, p))
    assert got.tolist() == want


def _inverse(m, p):
    """Inverse of an invertible matrix mod p, column by column by the oracle."""
    k = len(m)
    cols = [oracle_mod_kernel(np.concatenate(
        (m, -np.eye(k, dtype=np.int64)[:, [c]]), axis=1).tolist(), k + 1, p)[0]
        for c in range(k)]
    return np.array([col[:k] for col in cols], dtype=np.int64).T % p


@st.composite
def eigen_problems(draw):
    """A diagonalizable matrix P D P^-1 mod p and nonzero rows to split, each
    a combination of a few of the eigenvectors, the columns of P."""
    p = draw(_primes)
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pm = rng.integers(0, p, (k, k))
    while rank(pm.T.tolist(), k, p) < k:
        pm = rng.integers(0, p, (k, k))
    mat = pm @ np.diag(rng.integers(0, p, k)) @ _inverse(pm, p) % p
    coords = rng.integers(0, p, (draw(st.integers(1, 3)), k))
    coords[rng.random(coords.shape) < draw(st.floats(0, 0.8))] = 0
    coords[~coords.any(axis=1), 0] = 1
    return mat.astype(np.int64), coords @ pm.T % p, p


def _fixed_split(act, p, k=None, cols=None):
    """(mat, row, p) for a split of the row e_cols[0] by a class matrix
    acting by `act` on the rows of F_p^d, or on coordinates `cols` of F_p^k."""
    act = np.array(act, dtype=np.int64)
    d = len(act)
    k = k or d
    cols = list(range(d)) if cols is None else cols
    mat = np.eye(k, dtype=np.int64)
    mat[np.ix_(cols, cols)] = act.T
    return mat, np.eye(k, dtype=np.int64)[cols[:1]], p


_FIXED_SPLITS = {
    # a 3-cycle on a 3-dimensional invariant subspace of F_7^4: mu = x^3 - 1
    # has the three roots 1, 2 and 4 in F_7, each a line
    "lines": _fixed_split([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 7, k=4,
                          cols=[1, 2, 3]),
    # eigenvalue 1 twice and 2 once, and e_0 has a component on both
    # eigenspaces: mu = (x - 1)(x - 2) has degree 2 < 3
    "roots": _fixed_split([[1, 0, 1], [0, 1, 0], [0, 0, 2]], 7),
    # e_0 = (1, -1, 0) + (0, 1, 0) lies in the eigenspaces of 1 and 2 and has
    # no component on the eigenspace of 3
    "scan": _fixed_split([[1, 1, 0], [0, 2, 0], [0, 0, 3]], 7),
    # a Jordan block: (x - 1)^2 has one root, and the matrix no eigenbasis
    "fails": _fixed_split([[1, 1], [0, 1]], 7),
}


def _assert_split_matches_the_oracle(mat, rows, p):
    """Each row's pieces are its projections onto the eigenspaces it meets,
    up to nonzero scalars, in order of eigenvalue, rows in order; a row with
    no such decomposition raises 'failed to split'.  Returns the pieces."""
    try:
        want = [proj for row in rows.tolist()
                for proj in oracle_split_space(mat.tolist(), row, p)]
    except InternalContradiction:
        with pytest.raises(InternalContradiction, match="failed to split"):
            characters._split(mat, rows, p, _inverses(p))
        return None
    got = characters._split(mat, rows, p, _inverses(p))
    assert len(got) == len(want)
    for piece, proj in zip(got.tolist(), want):
        at = next(c for c, x in enumerate(proj) if x)
        scale = piece[at] * pow(proj[at], p - 2, p) % p
        assert scale and piece == [scale * x % p for x in proj]
    return got


@settings(max_examples=200, deadline=None)
@given(eigen_problems())
def test_eigenspace_split_matches_the_oracle(problem):
    _assert_split_matches_the_oracle(*problem)


@pytest.mark.parametrize("route", list(_FIXED_SPLITS))
def test_fixed_splits_take_their_route_and_match_the_oracle(route):
    # the cases once served by separate routes of the split now share the
    # Krylov one: "lines" splits into three lines, "roots" and "scan" into
    # the two eigenspaces e_0 meets, and the Jordan block fails
    mat, rows, p = _FIXED_SPLITS[route]
    got = _assert_split_matches_the_oracle(mat, rows, p)
    pieces = {"lines": 3, "roots": 2, "scan": 2, "fails": None}[route]
    assert (got is None) if pieces is None else len(got) == pieces


def _counted_splits(monkeypatch):
    """Patch `_split` and `_row_reduce` to record, per split, the class
    matrix, the rows it was given and a copy of every matrix reduced, and
    the matrices reduced outside a split."""
    splits, outside = [], []
    reduce, split = characters._row_reduce, characters._split

    def counted_reduce(a, p, inv):
        (splits[-1]["reduced"] if splits else outside).append(a.copy())
        return reduce(a, p, inv)

    def counted_split(mat, vecs, p, inv):
        splits.append({"mat": mat.copy(), "vecs": vecs.copy(), "p": p,
                       "reduced": []})
        return split(mat, vecs, p, inv)

    monkeypatch.setattr(characters, "_row_reduce", counted_reduce)
    monkeypatch.setattr(characters, "_split", counted_split)
    return splits, outside


def test_fixed_rows_reduce_nothing_and_the_first_split_reduces_k_plus_1(
        monkeypatch):
    # every row its class matrix moves reduces its Krylov blocks v A^j, of
    # k + 1 columns for e_0 alone and of 2, 4, ... up to k + 1 otherwise,
    # until the first that is not of full rank; a fixed row reduces nothing
    g = Catalog().group("Q8xS3xC4")
    k = 60
    splits, outside = _counted_splits(monkeypatch)
    assert len(characters._dixon_rows(g)) == k
    assert outside == []
    first = splits[0]
    assert first["vecs"].tolist() == [[1] + [0] * (k - 1)]
    assert [a.shape for a in first["reduced"]] == [(k, k + 1)]
    fixed = 0
    for s in splits:
        mat, vecs, p = s["mat"], s["vecs"], s["p"]
        # the identity class matrix splits nothing
        assert not np.array_equal(mat, np.eye(k))
        moved = [v for v, w in zip(vecs, vecs @ mat.T % p)
                 if rank([v, w], k, p) > 1]
        fixed += len(vecs) - len(moved)
        blocks = iter(s["reduced"])
        for v in moved:
            width = k + 1 if len(vecs) == 1 else 2
            while True:
                a = next(blocks)
                kry = [v]
                for _ in range(width - 1):
                    kry.append(kry[-1] @ mat.T % p)
                assert np.array_equal(a, np.array(kry).T)
                if rank(kry, k, p) < width:
                    break
                width = min(2 * width, k + 1)
        assert next(blocks, None) is None
    assert fixed


def test_largest_matrix_reduced_is_k_by_k_plus_1(monkeypatch):
    # the first split's k + 1 Krylov rows of e_0; every later block is
    # narrower, each row's space having dimension below k
    g = Catalog().group("C4xC4xC3")
    want = characters._table_nums(g)
    splits, _ = _counted_splits(monkeypatch)
    assert np.array_equal(characters._dixon_rows(g), want)
    sizes = [a.size for s in splits for a in s["reduced"]]
    assert max(sizes) == sizes[0] == 48 * 49 == 2_352


@pytest.mark.parametrize("name, bound", [("C19", 19 * 20),
                                         ("Q8xS3xC4", 24_308),
                                         ("C4xC4xC3", 12_432),
                                         ("C6xC6xC6", 173_880)])
def test_row_reduce_work_stays_within_its_bound(name, bound, monkeypatch):
    # the entries of every matrix that one table passes to `_row_reduce`;
    # scanning F_p in every split, C19 reduced 68,951 and Q8xS3xC4 209,864,
    # and keeping a basis per eigenspace C4xC4xC3 13,392 and C6xC6xC6
    # 382,752.  C19's one split is a single Krylov reduction of 20 rows of 19
    sizes = []
    reduce = characters._row_reduce

    def counted(a, p, inv):
        sizes.append(a.size)
        return reduce(a, p, inv)

    monkeypatch.setattr(characters, "_row_reduce", counted)
    characters._dixon_rows(_CAT.group(name))
    assert sum(sizes) <= bound


def _patched_split(monkeypatch, at, change):
    """Patch `_split` to pass its result through `change` on call `at`."""
    split = characters._split
    calls = []

    def patched(mat, vecs, p, inv):
        out = split(mat, vecs, p, inv)
        calls.append(len(out))
        return change(out) if len(calls) == at + 1 else out

    monkeypatch.setattr(characters, "_split", patched)
    return calls


@pytest.mark.parametrize("at", [0, 1])
def test_a_duplicated_piece_raises_internal_contradiction(monkeypatch, at):
    # on S3 the 3-cycles split e_0 in two and the transpositions make the
    # third row; a duplicate at the first split leaves k rows, one of them a
    # sum of two central characters, and at the last it makes k + 1 rows,
    # which must fail as a count, not as a shape in the lift
    calls = _patched_split(monkeypatch, at,
                           lambda out: np.concatenate([out, out[-1:]]))
    with pytest.raises(InternalContradiction):
        characters._dixon_rows(_CAT.group("S3"))
    assert calls[at] == at + 2


@pytest.mark.parametrize("at", [0, 1])
def test_a_dropped_piece_leaves_the_diagonalization_incomplete(monkeypatch,
                                                               at):
    _patched_split(monkeypatch, at, lambda out: out[:-1])
    with pytest.raises(InternalContradiction, match="incomplete"):
        characters._dixon_rows(_CAT.group("S3"))


@pytest.mark.parametrize("chunk", [10, 50, 1 << 18])
def test_class_constancy_counts_hold_at_most_the_chunk_or_one_row(
        monkeypatch, chunk):
    # S4's classes of 6 and 8 elements are counted a block of rows at a time,
    # every product exactly once, with the exact class-constancy check
    g = Catalog().group("S4")
    want = characters._table_nums(g)
    blocks = []
    count = characters._product_counts

    def counted(rows, classof, k):
        blocks.append(rows.size)
        return count(rows, classof, k)

    monkeypatch.setattr(characters, "_product_counts", counted)
    monkeypatch.setattr(characters, "_COUNT_CHUNK", chunk)
    assert np.array_equal(characters._dixon_rows(g), want)
    assert all(size <= max(chunk, g.order) for size in blocks)
    assert sum(blocks) == g.order ** 2
    assert max(blocks) == min(8, max(1, chunk // 24)) * 24


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
    want = characters._table_nums(g)
    monkeypatch.setattr(characters, "_dixon_prime", _next_dixon_prime)
    _USED.clear()
    assert np.array_equal(characters._dixon_rows(g), want)
    assert _USED and _USED[0] != _DIXON_PRIME(g.exponent(), g.order)


def _split_three_cycles(g, monkeypatch):
    """Give S3 a partition that is not class-constant: the 3-cycles apart."""
    real = characters.conjugacy_classes(g)
    # x y for x, y in {c} is c^2, outside its class
    c, c2 = real.classes[1]
    classes = (real.classes[0], (c,), (c2,) + real.classes[2])
    class_of = np.empty(g.order, dtype=np.int64)
    for i, cls in enumerate(classes):
        class_of[list(cls)] = i
    fake = ConjugacyPartition(classes, class_of)
    monkeypatch.setattr(characters, "conjugacy_classes", lambda grp: fake)


def test_a_prime_too_large_for_int64_residues_raises_first(monkeypatch):
    # the fake partition fails the class-constancy check at its second
    # class, so TooLarge shows that the guard runs before the structure
    # constants are counted (and before the table of p inverses)
    g = _CAT.group("S3")
    k, e = 3, g.exponent()
    p = 1 + e * (isqrt((1 << 62) // max(k, e)) // e + 1)
    while not is_prime(p):
        p += e
    assert max(k, e) * (p - 1) ** 2 >= 1 << 62
    _split_three_cycles(g, monkeypatch)
    monkeypatch.setattr(characters, "_dixon_prime", lambda exponent, order: p)
    with pytest.raises(TooLarge, match="int64"):
        characters._dixon_rows(g)


def test_structure_constants_keep_the_class_constancy_check(monkeypatch):
    g = _CAT.group("S3")
    _split_three_cycles(g, monkeypatch)
    with pytest.raises(InternalContradiction, match="class-constant"):
        characters._dixon_rows(g)


def test_classes_after_the_last_split_keep_the_class_constancy_check(
        monkeypatch):
    # the classes of r^2, r and s of D4 split every eigenspace into lines, so
    # the last class, the reflections {x, x r^2}, only has its counts
    # checked; swapping x * 1 and x * r in x's row leaves 1 pair of that
    # class at the identity class, not a multiple of its size 2, and keeps
    # x * x, so element orders stay finite
    g = _CAT.group("D4")
    part = characters.conjugacy_classes(g)
    g.exponent()
    x, r = part.classes[-1][0], part.classes[2][0]
    mul = g.mul.copy()
    mul[x, [g.identity, r]] = mul[x, [r, g.identity]]
    monkeypatch.setattr(g, "mul", mul)
    with pytest.raises(InternalContradiction, match="class-constant"):
        characters._dixon_rows(g)


def _oracle_order(nums, e):
    """The canonical row order by `Cyclotomic.sort_key`: rows by degree,
    then by the sort keys of their values, one `Cyclotomic` per value."""
    k = len(nums)
    vals = values(nums.reshape(k * k, -1), e)
    rows = [vals[i:i + k] for i in range(0, k * k, k)]
    return sorted(range(k), key=lambda i: (rows[i][0].as_integer(),
                                           tuple(v.sort_key() for v in rows[i])))


def _symmetric(n):
    return build_from_permutations(
        n, [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)],
        name=f"S{n}")


_ORDER_PRODUCTS = ["S3xS3", "C3xS3", "D4xC2", "Q8xC3", "S4xC3", "C6xC6",
                   "D4xC2xC3", "Q8xS3", "S4xS3", "S3xS3xS3", "C4xC4xC3",
                   "Q8xS3xC4", "C6xC6xC6"]
_ORDER_GROUPS = (_CAT.base_names() + _ORDER_PRODUCTS + ["S5", "S6"]
                 + [pytest.param("S7", marks=pytest.mark.slow)])


@pytest.mark.parametrize("name", _ORDER_GROUPS)
def test_rows_sort_as_their_cyclotomic_sort_keys(name):
    g = _symmetric(int(name[1:])) if name in ("S5", "S6", "S7") else _CAT.group(name)
    e = g.exponent()
    nums = characters._table_nums(g)
    assert _oracle_order(nums, e) == list(range(len(nums)))
    # the integer keys alone put shuffled rows back in the same order
    shuffled = nums[np.random.default_rng(len(nums)).permutation(len(nums))]
    assert np.array_equal(shuffled[characters._row_order(shuffled, e)], nums)


@pytest.mark.parametrize("name", ["S3xS3", "Q8xC3", "C4xC4xC3", "C6xC6"])
def test_row_order_keys_python_ints_as_fixed_width_ones(name):
    # an object-dtype table keys its distinct values by tuples, not void views
    g = _CAT.group(name)
    nums = characters._table_nums(g)
    shuffled = nums[np.random.default_rng(0).permutation(len(nums))]
    order = characters._row_order(shuffled, g.exponent())
    assert np.array_equal(
        characters._row_order(shuffled.astype(object), g.exponent()), order)
    assert np.array_equal(shuffled[order], nums)


@pytest.mark.slow
def test_one_class_matrix_at_a_time_keeps_c6xc6xc6_under_80_mb():
    # abelian, so the table comes from the dual group: 38 MB measured on a
    # 2-vCPU Xeon; keeping all 216 class matrices of 216 x 216 in Dixon's
    # method took 117 MB
    tool = Path(__file__).resolve().parents[1] / "tools" / "table_cost.py"
    run = subprocess.run([sys.executable, str(tool), "C6xC6xC6"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    got = re.fullmatch(r"C6xC6xC6: 216 classes, [\d.]+ ms, VmHWM (\d+) MB\n",
                       run.stdout)
    assert got and int(got[1]) <= 80, run.stdout


@pytest.mark.slow
def test_dixons_method_on_240_classes_stays_under_80_mb(tmp_path):
    # D4xC4xC4xC3 is not abelian, so Dixon's method builds its table: 240
    # classes, 0.7-0.9 s and 54 MB measured on a 2-vCPU Xeon.  D4 acts on
    # points 0-3, C4 on 4-7, and C4xC3 on 8-14 as one 4-cycle times one
    # 3-cycle, so the file has 5 lines
    lines = ["perm 15",
             "gen 1 2 3 0 4 5 6 7 8 9 10 11 12 13 14",
             "gen 0 3 2 1 4 5 6 7 8 9 10 11 12 13 14",
             "gen 0 1 2 3 5 6 7 4 8 9 10 11 12 13 14",
             "gen 0 1 2 3 4 5 6 7 9 10 11 8 13 14 12"]
    path = tmp_path / "d4xc4xc4xc3.txt"
    path.write_text("\n".join(lines) + "\n")
    tool = Path(__file__).resolve().parents[1] / "tools" / "table_cost.py"
    run = subprocess.run([sys.executable, str(tool), str(path)],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    got = re.fullmatch(re.escape(str(path)) +
                       r": 240 classes, [\d.]+ ms, VmHWM (\d+) MB\n", run.stdout)
    assert got and int(got[1]) <= 80, run.stdout


@pytest.mark.slow
def test_the_largest_table_the_class_cap_admits_stays_under_80_mb(tmp_path):
    # C4^4, 256 classes, from 4 disjoint 4-cycles on 16 points, abelian, so
    # its table comes from the dual group: 0.11 s and 40 MB measured on a
    # 2-vCPU Xeon
    gens = []
    for block in range(0, 16, 4):
        img = list(range(16))
        img[block:block + 4] = img[block + 1:block + 4] + [block]
        gens.append("gen " + " ".join(map(str, img)))
    path = tmp_path / "c4x4x4x4.txt"
    path.write_text("\n".join(["perm 16"] + gens) + "\n")
    tool = Path(__file__).resolve().parents[1] / "tools" / "table_cost.py"
    run = subprocess.run([sys.executable, str(tool), str(path)],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    got = re.fullmatch(re.escape(str(path)) +
                       r": 256 classes, [\d.]+ ms, VmHWM (\d+) MB\n", run.stdout)
    assert got and int(got[1]) <= 80, run.stdout


def test_table_cost_reports_each_name_on_its_own_line():
    # one child interpreter per name, in order; a name that cannot be
    # resolved fails its own line and the exit code, not the others
    tool = Path(__file__).resolve().parents[1] / "tools" / "table_cost.py"
    run = subprocess.run([sys.executable, str(tool), "C2", "no-such-group",
                          "S3"], capture_output=True, text=True, timeout=120)
    assert run.returncode == 1
    assert re.fullmatch(r"C2: 2 classes, [\d.]+ ms, VmHWM \d+ MB\n"
                        r"S3: 3 classes, [\d.]+ ms, VmHWM \d+ MB\n", run.stdout)
    assert "no-such-group" in run.stderr
