"""The per-row Clifford and classification checks, one row at a time, kept
as an oracle for the verdict arrays of `clifford._NormalPair`.

Each function reads one row r of a pair's arrays in plain Python, with the
exact values built as `Fraction`s or `Cyclotomic`s, and returns what
`clifford._clifford_row` and `_classify_row` return for that row, or raises
the same `InternalContradiction`.
"""

import numpy as np

from charcond.characters import _exact
from charcond.clifford import ClassificationKind
from charcond.cyclotomic import scaled
from charcond.errors import InternalContradiction


def _restricted_norm(pair, r):
    return _exact(pair.res_norm[r], pair.e, pair.order_h)


def _is_induced(pair, j, nums):
    return np.array_equal(pair.ind[j], scaled(nums, pair.order_h))


def oracle_clifford_row(pair, r):
    """(e, orbit rows) of Res chi_r, checking chi(1) = e t theta(1),
    <Res chi, Res chi> = e^2 t, e^2 <= |I/H| and e^2 t <= |G/H|."""
    index = pair.order_g // pair.order_h
    parts = np.flatnonzero(pair.mult[r]).tolist()
    distinct = set(pair.mult[r, parts].tolist())
    if len(distinct) != 1:
        raise InternalContradiction(
            f"restriction constituents have unequal multiplicities {sorted(distinct)}")
    e = distinct.pop()
    j = parts[0]
    orbit = [j] + [i for i in np.flatnonzero(pair.orbit[j]).tolist() if i != j]
    if set(parts) != set(orbit):
        raise InternalContradiction("constituents are not a single conjugate orbit")
    t = len(orbit)
    over = int(pair.stab[j]) // pair.order_h
    if pair.tg[r, 0, 0] != e * t * pair.th[j, 0, 0]:
        raise InternalContradiction("degree bookkeeping chi(1) = e t theta(1) fails")
    if _restricted_norm(pair, r) != e * e * t:
        raise InternalContradiction("<Res chi, Res chi> != e^2 t")
    if e * e > over or e * e * t > index:
        raise InternalContradiction("Clifford e-bounds violated")
    return e, orbit


def oracle_classify_row(pair, r):
    """(kind, theta row, e, orbit rows, checks) of chi_r over a prime index."""
    q = pair.order_g // pair.order_h
    if _restricted_norm(pair, r) == 1:
        parts = np.flatnonzero(pair.mult[r]).tolist()
        j = parts[0] if parts else 0
        checks = {
            "restriction_irreducible": True,
            "restriction_matches": (parts == [j] and int(pair.mult[r, j]) == 1
                                    and np.array_equal(pair.tg[r, pair.cols], pair.th[j])),
            "inertia_whole_group": bool(pair.stab[j] == pair.order_g),
            "induced_differs": not _is_induced(pair, j, pair.tg[r]),
        }
        return ClassificationKind.RESTRICTED, j, 1, [j], checks
    e, orbit = oracle_clifford_row(pair, r)
    j = orbit[0]
    checks = {
        "orbit_size_q": len(orbit) == q,
        "multiplicity_one": e == 1,
        "induced_matches": _is_induced(pair, j, pair.tg[r]),
        "inertia_is_subgroup": bool(pair.is_h[j]),
        "restriction_reducible": _restricted_norm(pair, r) == q,
    }
    if not all(checks.values()):
        raise InternalContradiction(f"induced-case verification failed: {checks}")
    return ClassificationKind.INDUCED, j, e, orbit, checks
