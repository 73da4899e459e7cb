"""Dixon's method over F_p: batched row reduction, eigenspace splits and lift.

The oracles are pure-Python routines: an RREF null-space solver and an
eigenspace split that tries every lambda in F_p with one kernel solve each,
on the full space rather than on the restricted action.  Character tables
are also recomputed over a second prime; the exact rows must not depend on
the prime.
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


def _inverses(p):
    return np.array([pow(x, p - 2, p) for x in range(p)], dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(stacks())
def test_nullities_and_null_spaces_match_the_oracle(case):
    # the null space of each member is read off its reduced form, so equal
    # reduced forms and pivots give the oracle's nullity and kernel basis
    stack, p = case
    d = stack.shape[2]
    red, pivots = characters._row_reduce(stack, p, _inverses(p))
    for member, got, mask in zip(stack, red, pivots):
        want, cols = oracle_rref(member.tolist(), d, p)
        assert np.flatnonzero(mask).tolist() == cols
        assert d - mask.sum() == len(oracle_mod_kernel(member.tolist(), d, p))
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


def _space(basis, p):
    """A basis in the form `_split` takes: reduced rows, identity on cols."""
    m, cols = oracle_rref(basis.tolist(), basis.shape[1], p)
    return np.array(m[:len(cols)], dtype=np.int64), np.array(cols)


@settings(max_examples=200, deadline=None)
@given(eigen_problems())
def test_eigenspace_split_matches_the_oracle(problem):
    mat, basis, p = problem
    k = mat.shape[0]
    space = _space(basis, p)
    image = (basis @ mat.T % p).tolist()
    if rank(basis.tolist() + image, k, p) > len(basis):
        with pytest.raises(InternalContradiction, match="leaves"):
            characters._split(mat, space, p, _inverses(p))
        return
    try:
        want = oracle_split_space(mat.tolist(), basis.tolist(), p)
    except InternalContradiction:
        with pytest.raises(InternalContradiction, match="failed to split"):
            characters._split(mat, space, p, _inverses(p))
        return
    got = characters._split(mat, space, p, _inverses(p))
    assert len(got) == len(want)
    for (piece, cols), ref in zip(got, want):
        assert len(piece) == len(ref)
        assert piece[:, cols].tolist() == np.eye(len(cols), dtype=int).tolist()
        both = piece.tolist() + ref
        assert rank(piece.tolist(), k, p) == rank(ref, k, p) == rank(both, k, p)


def _counted_splits(monkeypatch, chunk=None):
    """Patch `_split` and `_row_reduce` to record, per split, the dimension
    d, the prime, the action A on the space, whether the class matrix is the
    identity, the sizes of the stacks reduced, each stack with its reduced
    forms and pivots, and the eigenspaces found."""
    splits, outside = [], []
    reduce, split = characters._row_reduce, characters._split

    def counted_reduce(stack, p, inv):
        red, pivots = reduce(stack, p, inv)
        if splits:
            splits[-1]["stacks"].append(stack.size)
            splits[-1]["reduced"].append((stack.copy(), red, pivots))
        else:
            outside.append(stack.size)
        return red, pivots

    def counted_split(mat, space, p, inv):
        basis, cols = space
        splits.append({"d": len(basis), "p": p, "stacks": [], "reduced": [],
                       "act": (basis @ mat.T % p)[:, cols],
                       "identity": np.array_equal(mat, np.eye(len(mat)))})
        out = split(mat, space, p, inv)
        splits[-1]["pieces"] = len(out)
        return out

    monkeypatch.setattr(characters, "_row_reduce", counted_reduce)
    monkeypatch.setattr(characters, "_split", counted_split)
    if chunk is not None:
        monkeypatch.setattr(characters, "_LAMBDA_CHUNK", chunk)
    return splits, outside


def _route(split):
    """The route one non-scalar split took, checked against its reductions.

    The first reduction is of the Krylov rows v A^j of v = e_0: d + 1 of them
    when that many fit the chunk, else d.  Its first dependency gives mu,
    whose roots are found here one lambda at a time in pure Python.  If mu
    has degree d and d roots the split reduces nothing more ("lines").
    Otherwise each later stack holds (A - lam)^T for a chunk of lambda: the
    roots first, then the other lambda in increasing order, and it stops as
    soon as the kernels fill the space ("roots" or "scan"), or after the
    last lambda ("fails").
    """
    d, p, act = split["d"], split["p"], split["act"]
    chunk = characters._LAMBDA_CHUNK
    (kry, red, pivots), *elims = split["reduced"]
    rows = d + 1 if d * (d + 1) <= chunk else d
    want = np.zeros((rows, d), dtype=np.int64)
    want[0, 0] = 1
    for j in range(1, rows):
        want[j] = want[j - 1] @ act % p
    assert kry.shape == (1, d, rows) and np.array_equal(kry[0].T, want)
    deg = int(pivots.sum())
    roots = []
    if deg < rows:
        mu = red[0, :deg, deg].tolist()
        roots = [x for x in range(p) if (pow(x, deg, p) - sum(
            c * pow(x, i, p) for i, c in enumerate(mu))) % p == 0]
    if deg == len(roots) == d:
        assert elims == []
        return "lines"
    step = max(1, chunk // (d * d))
    others = [x for x in range(p) if x not in roots]
    chunks = [lams[at:at + step] for lams in (roots, others)
              for at in range(0, len(lams), step)]
    got = [[(act[0, 0] - m[0, 0]) % p for m in stack] for stack, _, _ in elims]
    assert all(np.array_equal((act.T - m) % p, lam * np.eye(d, dtype=int))
               for (stack, _, _), lams in zip(elims, got)
               for m, lam in zip(stack, lams))
    assert got == chunks[:len(got)]
    found = np.cumsum([(~piv).sum() for _, _, piv in elims])
    # no reduction once the kernels fill the space
    assert all(f < d for f in found[:-1])
    if found[-1] < d:
        assert got == chunks
        return "fails"
    return "roots" if len(got) <= -(-len(roots) // step) else "scan"


def test_one_batched_elimination_per_non_scalar_split(monkeypatch):
    # every non-scalar split makes one Krylov reduction, then no other when
    # its minimal polynomial on e_0 has d roots, else one batched elimination
    # per chunk of lambda, roots before the scan; `_route` checks the order
    g = Catalog().group("Q8xS3xC4")
    splits, outside = _counted_splits(monkeypatch)
    assert len(characters._dixon_rows(g)) == 60
    # no elimination outside a split, none where a class matrix acts on the
    # space as a scalar, and the identity class matrix splits nothing
    assert outside == []
    assert all((s["pieces"] == 1) == (s["stacks"] == []) for s in splits)
    assert not any(s["identity"] for s in splits)
    real = [s for s in splits if s["stacks"]]
    routes = [_route(s) for s in real]
    assert "lines" in routes and "roots" in routes and "fails" not in routes
    assert all(s["pieces"] == s["d"] and len(s["stacks"]) == 1
               for s, route in zip(real, routes) if route == "lines")
    assert sum(len(s["stacks"]) for s in real) < sum(s["pieces"] for s in real)
    # 209,864 entries when every split scanned F_p
    assert sum(sum(s["stacks"]) for s in real) < 209_864


def _fixed_split(act, p, k=None, cols=None):
    """(mat, basis, p) for a split on which a class matrix acts by `act`:
    on all of F_p^d, or on the coordinates `cols` of F_p^k."""
    act = np.array(act, dtype=np.int64)
    d = len(act)
    k = k or d
    cols = list(range(d)) if cols is None else cols
    basis = np.eye(k, dtype=np.int64)[cols]
    mat = np.eye(k, dtype=np.int64)
    mat[np.ix_(cols, cols)] = act.T
    return mat, basis, p


_FIXED_SPLITS = {
    # a 3-cycle on a 3-dimensional invariant subspace of F_7^4: mu = x^3 - 1
    # has the three roots 1, 2 and 4 in F_7
    "lines": _fixed_split([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 7, k=4,
                          cols=[1, 2, 3]),
    # eigenvalue 1 twice and 2 once, and e_0 has a component on both
    # eigenspaces: mu = (x - 1)(x - 2) has degree 2 < 3
    "roots": _fixed_split([[1, 0, 1], [0, 1, 0], [0, 0, 2]], 7),
    # e_0 = (1, -1, 0) + (0, 1, 0) lies in the eigenspaces of 1 and 2 and has
    # no component on the eigenspace of 3, which only the scan finds
    "scan": _fixed_split([[1, 1, 0], [0, 2, 0], [0, 0, 3]], 7),
    # a Jordan block: (x - 1)^2 has one root, whose kernel is a line
    "fails": _fixed_split([[1, 1], [0, 1]], 7),
}


@pytest.mark.parametrize("route", list(_FIXED_SPLITS))
def test_fixed_splits_take_their_route_and_match_the_oracle(route,
                                                            monkeypatch):
    mat, basis, p = _FIXED_SPLITS[route]
    k = len(mat)
    space = _space(basis, p)
    splits, _ = _counted_splits(monkeypatch)
    if route == "fails":
        with pytest.raises(InternalContradiction, match="failed to split"):
            oracle_split_space(mat.tolist(), basis.tolist(), p)
        with pytest.raises(InternalContradiction, match="failed to split"):
            characters._split(mat, space, p, _inverses(p))
        assert _route(splits[0]) == "fails"
        return
    want = oracle_split_space(mat.tolist(), basis.tolist(), p)
    got = characters._split(mat, space, p, _inverses(p))
    assert _route(splits[0]) == route
    assert len(got) == len(want)
    for (piece, cols), ref in zip(got, want):
        assert len(piece) == len(ref)
        assert piece[:, cols].tolist() == np.eye(len(cols), dtype=int).tolist()
        both = piece.tolist() + ref
        assert rank(piece.tolist(), k, p) == rank(ref, k, p) == rank(both, k, p)


@pytest.mark.parametrize("name, bound", [("C19", 19 * 20),
                                         ("Q8xS3xC4", 24_308)])
def test_row_reduce_work_stays_within_its_bound(name, bound, monkeypatch):
    # the entries of every stack that one table passes to `_row_reduce`;
    # scanning F_p in every split, C19 reduced 68,951 and Q8xS3xC4 209,864.
    # C19's one split is a single Krylov reduction of 20 rows of 19
    sizes = []
    reduce = characters._row_reduce

    def counted(stack, p, inv):
        sizes.append(stack.size)
        return reduce(stack, p, inv)

    monkeypatch.setattr(characters, "_row_reduce", counted)
    characters._dixon_rows(_CAT.group(name))
    assert sum(sizes) <= bound


def test_elimination_stack_holds_at_most_the_chunk_or_one_square(monkeypatch):
    # a space of d^2 > _LAMBDA_CHUNK entries takes one lambda at a time
    g = Catalog().group("C4xC4xC3")
    want = characters._table_nums(g)
    splits, _ = _counted_splits(monkeypatch, chunk=200)
    assert np.array_equal(characters._dixon_rows(g), want)
    sizes = [(s["d"], size) for s in splits for size in s["stacks"]]
    assert all(size <= max(200, d * d) for d, size in sizes)
    assert max(size for _, size in sizes) == 48 * 48


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


@pytest.mark.slow
def test_one_class_matrix_at_a_time_keeps_c6xc6xc6_under_80_mb():
    # 41 MB measured on a 2-vCPU Xeon; keeping all 216 class matrices of
    # 216 x 216 took 117 MB
    tool = Path(__file__).resolve().parents[1] / "tools" / "table_cost.py"
    run = subprocess.run([sys.executable, str(tool), "C6xC6xC6"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    got = re.fullmatch(r"C6xC6xC6: 216 classes, [\d.]+ s, VmHWM (\d+) MB\n",
                       run.stdout)
    assert got and int(got[1]) <= 80, run.stdout


def test_table_cost_reports_each_name_on_its_own_line():
    # one child interpreter per name, in order; a name that cannot be
    # resolved fails its own line and the exit code, not the others
    tool = Path(__file__).resolve().parents[1] / "tools" / "table_cost.py"
    run = subprocess.run([sys.executable, str(tool), "C2", "no-such-group",
                          "S3"], capture_output=True, text=True, timeout=120)
    assert run.returncode == 1
    assert re.fullmatch(r"C2: 2 classes, [\d.]+ s, VmHWM \d+ MB\n"
                        r"S3: 3 classes, [\d.]+ s, VmHWM \d+ MB\n", run.stdout)
    assert "no-such-group" in run.stderr
