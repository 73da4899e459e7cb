"""Each side of a sweep identity comes by its own route.

One route is broken at a time, in every charcond module that binds it, and
the records comparing it with another route must FAIL with the detail the
suites report for that failure.  The routes:
- the induction counts give Ind theta, so Res Ind theta and Frobenius
  reciprocity;
- the class permutations give the orbits and inertia groups;
- the restriction gather gives Res chi, so the multiplicities and the
  classification;
- the inflated table of G/H gives the products chi * psi_i, their
  distinctness and norms, and with the induction counts Gallagher's sum
  Ind theta = sum_i chi * psi_i.
Records are read on S3 over A3, where the two non-trivial characters of A3
are conjugate.  The conductor suite's routes, read on every catalog context:
- a filtration's count matrix gives the exponents of the table and of sums
  of characters, so the conductor-discriminant product and f(phi + psi);
  a second count matrix, one bincount per G_j, gives f(phi) + f(psi) and
  the exponents on the filtration padded with trivial groups;
- one gather of x h x^-1 gives the count matrices of all conjugate
  filtrations.
"""

import sys

import numpy as np

from charcond import characters, conductor, verify
from charcond.catalog import Catalog
from charcond.verify import run_suite

S3 = "G=S3, |H|=3"


def _patch(monkeypatch, name, fn):
    for modname, mod in list(sys.modules.items()):
        if modname.partition(".")[0] == "charcond" and hasattr(mod, name):
            monkeypatch.setattr(mod, name, fn)


def _records(*suites):
    cat = Catalog()
    return {c.identity: (c.passed, c.detail)
            for suite in suites for c in run_suite(suite, cat, 6).checks
            if c.inputs.startswith(S3)}


def test_every_route_agrees_unbroken():
    got = _records("clifford", "classification", "tables")
    assert len(got) == 5 and all(ok for ok, _ in got.values())


def test_perturbed_induction_counts_fail_res_ind_and_frobenius(monkeypatch):
    real = characters._induction_counts

    def perturbed(s):
        counts = real(s).copy()
        # count one more x with x^-1 g x = 1, g in the class of H's last class
        counts[characters._restriction_classes(s)[-1], 0] += 1
        return counts

    _patch(monkeypatch, "_induction_counts", perturbed)
    got = _records("clifford", "tables")
    # each record shows the last failure of its own check
    assert got["clifford: Res Ind theta = |I/H| sum of conjugates"] == (
        False, "Res Ind theta mismatch for theta degree 1")
    assert got["clifford: <Ind theta, Ind theta> = |I/H| and degree bookkeeping"] == (
        False, "irreducibility of Ind theta disagrees with I=H")
    assert got["tables: Frobenius reciprocity"] == (
        False, "<Ind t2, x2> = 8/9 != 1")


def test_identity_class_permutations_fail_orbit_and_inertia(monkeypatch):
    real = characters._conj_class_perms

    def identity(s):
        perms = real(s)
        return np.ascontiguousarray(
            np.broadcast_to(np.arange(perms.shape[1]), perms.shape))

    _patch(monkeypatch, "_conj_class_perms", identity)
    got = _records("clifford", "dichotomy")
    # every theta looks invariant, so |I/H| = 2 for the two conjugates: the
    # orbit sums and <Ind theta, Ind theta> = 1 disagree with it, and the
    # Clifford check of Res chi stops at the first row
    assert got["clifford: Res Ind theta = |I/H| sum of conjugates"] == (
        False, "Res Ind theta mismatch for theta degree 1")
    assert got["clifford: <Ind theta, Ind theta> = |I/H| and degree bookkeeping"] == (
        False, "irreducibility of Ind theta disagrees with I=H")
    assert got["clifford: Res chi = e * orbit with e-bounds"] == (
        False, "constituents are not a single conjugate orbit")


def test_corrupted_restriction_gather_fails_classification_and_e(monkeypatch):
    real = characters._restriction_classes

    def corrupted(s):
        cols = real(s).copy()
        cols[-1] = cols[0]      # read the last class of H at the identity
        return cols

    _patch(monkeypatch, "_restriction_classes", corrupted)
    got = _records("clifford", "classification")
    detail = "multiplicity of row 1 is -z3, not a nonnegative integer"
    assert got["clifford: Res chi = e * orbit with e-bounds"] == (False, detail)
    assert got["classification: totality and exclusivity under prime index"] == (
        False, detail)
    # <Ind theta, Ind theta> and the degree bookkeeping read no gather
    assert got["clifford: <Ind theta, Ind theta> = |I/H| and degree bookkeeping"] == (
        True, "")


def _gallagher_failures(monkeypatch):
    """The gallagher record of S3 over A3, and the text of every check of
    it that fails, where the record shows only the last."""
    real, failed = verify._last_failure, set()

    def every(fails, texts):
        for item, check in np.argwhere(np.stack(fails).T).tolist():
            failed.add(texts[check](item))
        return real(fails, texts)

    monkeypatch.setattr(verify, "_last_failure", every)
    (record,) = _records("gallagher").values()
    return record, failed


_NOT_DISTINCT = "products chi * psi_i are not distinct"
_SUM = "sum of chi * psi_i differs from Ind theta"
_REDUCIBLE = "a product chi * psi_i is not irreducible"


def test_repeated_quotient_row_fails_distinct_products(monkeypatch):
    real = characters._inflated_table

    def repeated(qmap):
        psi = real(qmap).copy()
        psi[-1] = psi[0]        # the sign of S3/A3 read as the trivial row
        return psi

    _patch(monkeypatch, "_inflated_table", repeated)
    # chi * psi_0 twice: equal products, and their sum 2 chi is not Ind theta
    assert _gallagher_failures(monkeypatch) == (
        (False, _SUM), {_NOT_DISTINCT, _SUM})


def test_perturbed_induction_row_fails_gallagher_sum(monkeypatch):
    real = characters._induction_sums

    def perturbed(s, nums, bound):
        ind = real(s, nums, bound).copy()
        ind[0, -1] += 1         # Ind of the trivial theta, on the last class
        return ind

    _patch(monkeypatch, "_induction_sums", perturbed)
    assert _gallagher_failures(monkeypatch) == ((False, _SUM), {_SUM})


def test_scaled_quotient_table_fails_irreducible_products(monkeypatch):
    real = characters._inflated_table
    _patch(monkeypatch, "_inflated_table", lambda qmap: 2 * real(qmap))
    # norms 4 where 1 is due, and a sum twice Ind theta
    assert _gallagher_failures(monkeypatch) == (
        (False, _REDUCIBLE), {_REDUCIBLE, _SUM})


def _conductor_records():
    return {(c.identity, c.inputs): (c.passed, c.detail)
            for c in run_suite("conductor", Catalog()).checks}


def test_perturbed_count_matrix_fails_discriminant_and_additivity(monkeypatch):
    real = conductor._count_matrix

    def perturbed(filt, image=None):
        counts = real(filt, image)
        if image is None:
            # one more element of G_0 in the last class
            counts = counts.copy()
            counts[0, -1] += 1
        return counts

    _patch(monkeypatch, "_count_matrix", perturbed)
    got = _conductor_records()
    irrational = "character sum over a filtration group is irrational: "
    assert got[("conductor: conductor-discriminant product equals disc",
                "context gauss, disc 4")] == (False, "product mismatch")
    assert got[("conductor: conductor-discriminant product equals disc",
                "context quad-m23, disc 23")] == (False, "product mismatch")
    assert got[("conductor: conductor-discriminant product equals disc",
                "context quintic11, disc 14641")] == (False, irrational + "z5")
    # on C2 the sign character's exponent reads 3 at 2 and 2 at 23, where
    # the second count matrix gives 2 and 1; on C5 a sum over G_0 is
    # irrational
    assert got[("conductor: exponents are additive in the character",
                "context gauss, 100 random sums")] == (
        False, "f(phi+psi)=6 vs 4 at prime 2")
    assert got[("conductor: exponents are additive in the character",
                "context quad-m23, 100 random sums")] == (
        False, "f(phi+psi)=10 vs 5 at prime 23")
    assert got[("conductor: exponents are additive in the character",
                "context quintic11, 100 random sums")] == (
        False, irrational + "-z5^3 - z5^2 - 2*z5 + 14")


def test_perturbed_class_counts_fail_additivity_and_truncation(monkeypatch):
    real = conductor._class_counts

    def perturbed(filt):
        # one more element of G_0 in the last class
        counts = real(filt).copy()
        counts[0, -1] += 1
        return counts

    _patch(monkeypatch, "_class_counts", perturbed)
    got = _conductor_records()
    broken = {"conductor: exponents are additive in the character",
              "conductor: appending trivial groups never changes exponents"}
    assert {inputs for (identity, inputs), (ok, _) in got.items()
            if identity in broken and not ok} == {
        f"context {name}{where}" for name in ("gauss", "quad-m23", "quintic11")
        for where in ("", ", 100 random sums")}
    # the discriminant and conjugation records read no second count matrix
    assert all(ok for (identity, _), (ok, _) in got.items()
               if identity not in broken)


def test_wrong_conjugation_gather_fails_conjugation_invariance(monkeypatch):
    real = conductor._count_matrix

    def wrong(filt, image=None):
        if image is None:
            return real(filt)
        # the class of x h x^-1 read at the first element h of G_0, for all h
        return real(filt, lambda h: np.repeat(image(h)[:, :1], len(h), axis=1))

    _patch(monkeypatch, "_count_matrix", wrong)
    got = _conductor_records()
    conj = "conductor: exponents invariant under conjugating the filtration"
    assert got[(conj, "context gauss")] == (
        False, "conjugating by 0 gives exponents [0, 0], not [0, 2]")
    assert got[(conj, "context quad-m23")] == (
        False, "conjugating by 0 gives exponents [0, 0], not [0, 1]")
    assert got[(conj, "context quintic11")] == (
        False, "conjugating by 0 gives exponents [0, 0, 0, 0, 0], "
        "not [0, 1, 1, 1, 1]")
    assert all(ok for (identity, _), (ok, _) in got.items() if identity != conj)
