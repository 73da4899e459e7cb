"""Verification report plumbing and small-cap suite runs."""

import gc
import json
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from charcond import characters, clifford, conductor, verify
from charcond.catalog import Catalog
from charcond.errors import InternalContradiction, InvalidData
from charcond.groups import FiniteGroup, Subgroup, normal_subgroups
from charcond.verify import SUITE_NAMES, VerificationReport, run_suite


def test_report_roundtrip():
    rep = VerificationReport("demo")
    rep.add("identity A", "G=X", True)
    rep.add("identity B", "G=Y", False, "lhs 2 != rhs 3")
    data = json.loads(json.dumps(rep.to_json_dict()))
    back = VerificationReport(data["suite"])
    for c in data["checks"]:
        back.add(c["identity"], c["inputs"], c["pass"], c.get("detail", ""))
    assert back == rep
    assert data["summary"] == {"total": 2, "passed": 1, "failed": 1}
    assert "detail" not in data["checks"][0]
    assert back.suite == "demo"
    assert [c.passed for c in back.checks] == [True, False]
    assert back.checks[1].detail == "lhs 2 != rhs 3"
    assert not back.passed
    assert back.counts == (2, 1, 1)


def test_render_text_marks_failures():
    rep = VerificationReport("demo")
    rep.add("good", "x", True)
    rep.add("bad", "y", False, "exact values here")
    text = rep.render_text()
    assert "[PASS] good" in text
    assert "[FAIL] bad" in text and "exact values here" in text
    assert "1 failed" in text


def test_unknown_suite():
    with pytest.raises(InvalidData):
        run_suite("nope")


@pytest.mark.parametrize("name", [n for n in SUITE_NAMES if n != "all"])
def test_each_suite_passes_at_small_cap(name):
    rep = run_suite(name, cat=Catalog(), max_order=8)
    assert rep.passed, rep.render_text()
    assert rep.counts[0] > 0


_S3_PAIR = "G=S3, |H|=3"


def _refuse_s3_pair(monkeypatch):
    """Make building the arrays of the pair (S3, A3), and of no other pair,
    raise InternalContradiction."""
    real = clifford._segment

    def refused(s):
        if (s.parent.name, s.order) == ("S3", 3):
            raise InternalContradiction("pair arrays refused")
        return real(s)

    monkeypatch.setattr(clifford, "_segment", refused)


@pytest.mark.parametrize("suite", ["clifford", "dichotomy", "classification",
                                   "gallagher"])
def test_a_pair_that_cannot_be_built_fails_every_record_of_it(monkeypatch, suite):
    # no record of the pair may pass unchecked, and the error may not stop
    # the suite: the other pairs are still checked, and pass
    _refuse_s3_pair(monkeypatch)
    rep = run_suite(suite, cat=Catalog(), max_order=6)
    mine = [c for c in rep.checks if c.inputs.startswith(_S3_PAIR)]
    assert len(mine) == (3 if suite == "clifford" else 1)
    assert all(not c.passed and c.detail == "pair arrays refused" for c in mine)
    others = [c for c in rep.checks if not c.inputs.startswith(_S3_PAIR)]
    assert others and all(c.passed for c in others)


def test_a_pair_whose_multiplicities_are_not_integers_fails_only_their_records(
        monkeypatch):
    # D4's five proper normal pairs are built together; the Gram cut of its
    # rotations, the cyclic subgroup of order 4, gets a multiplicity 5/4,
    # with the induced side of reciprocity moved along, so that only the
    # multiplicities fail.  Only the two records of that pair that read
    # them fail, with the message of `characters._multiplicities`; its
    # other records and those of its siblings pass
    cat = Catalog()
    g = cat.group("D4")
    rot = next(s for s in normal_subgroups(g)
               if s.order == 4 and s.as_group().exponent() == 4)
    real = clifford._NormalPairs.__init__

    def broken(self, grp, segments):
        real(self, grp, segments)
        for i, segment in enumerate(segments):
            if (grp.name == "D4" and len(segments) == 5
                    and tuple(np.flatnonzero(segment[-1]).tolist()) == rot.elements):
                lo = self.starts[i]
                self.res_gram, self.ind_gram = self.res_gram.copy(), self.ind_gram.copy()
                self.res_gram[0, lo, 0] += 1
                self.ind_gram[0, lo, 0] += grp.order

    monkeypatch.setattr(clifford._NormalPairs, "__init__", broken)
    failed, seen = [], Counter()
    for suite in ("clifford", "dichotomy", "classification", "gallagher", "tables"):
        for c in run_suite(suite, cat=cat, max_order=8).checks:
            # the three subgroups of order 4 share their inputs; the
            # rotations come first
            seen[c.identity, c.inputs] += 1
            if not c.passed:
                failed.append((c.identity, c.inputs, seen[c.identity, c.inputs],
                               c.detail))
    message = "multiplicity of row 0 is 5/4, not a nonnegative integer"
    assert failed == [
        ("clifford: Res chi = e * orbit with e-bounds", "G=D4, |H|=4", 1, message),
        ("classification: totality and exclusivity under prime index",
         "G=D4, |H|=4", 1, message)]
    # seven records per pair: three clifford, one each of the others
    assert sum(n for (_, inputs), n in seen.items()
               if inputs.startswith("G=D4, |H|=4")) == 3 * 7


def test_a_quotient_that_cannot_be_built_fails_only_its_gallagher_record(
        monkeypatch):
    # D4's three pairs of prime index share one Gallagher pass; the one
    # whose quotient is refused is left out of it, and only its record fails
    real = clifford.quotient

    def refused(g, s):
        if g.name == "D4" and s.order == 4 and s.as_group().exponent() == 4:
            raise InternalContradiction("quotient refused")
        return real(g, s)

    monkeypatch.setattr(clifford, "quotient", refused)
    rep = run_suite("gallagher", cat=Catalog(), max_order=8)
    failed = [(c.inputs, c.detail) for c in rep.checks if not c.passed]
    assert failed == [("G=D4, |H|=4, invariant thetas=2", "quotient refused")]
    assert sum(c.inputs.startswith("G=D4") for c in rep.checks) == 3


def test_a_failing_frobenius_check_fails_only_its_record(monkeypatch):
    cat = Catalog()
    s3 = cat.group("S3")
    # the suite's subgroups share this one's cache, so they read its arrays
    target = clifford._pair(next(s for s in normal_subgroups(s3) if s.order == 3))
    real = clifford._NormalPair.frobenius

    def refused(self):
        if self is target:
            raise InternalContradiction("Frobenius refused")
        return real(self)

    monkeypatch.setattr(clifford._NormalPair, "frobenius", refused)
    rep = run_suite("tables", cat=cat, max_order=6)
    failed = [(c.identity, c.inputs, c.detail) for c in rep.checks
              if not c.passed]
    assert failed == [("tables: Frobenius reciprocity", _S3_PAIR,
                       "Frobenius refused")]


def test_cli_reports_a_pair_that_cannot_be_built_and_exits_3(monkeypatch,
                                                            capsys):
    from charcond.cli import main
    _refuse_s3_pair(monkeypatch)
    # a fresh catalog, so that no earlier run has built the pair already
    monkeypatch.setattr(verify, "default_catalog", Catalog)
    assert main(["verify", "--suite", "dichotomy"]) == 3
    out = capsys.readouterr().out
    assert (f"[FAIL] dichotomy: I(theta) is G or H under prime index  "
            f"({_S3_PAIR})  pair arrays refused") in out
    assert out.rstrip().endswith("1 failed")


def _break_suite_inputs(monkeypatch):
    """Make the chains and tables of the degrees and conductor suites and
    the label of the Gallagher records raise an exact error."""
    def broken(*args, **kwargs):
        raise InternalContradiction("input refused")

    for name in ("product_chain", "character_table", "_conj_class_perms"):
        monkeypatch.setattr(verify, name, broken)


def test_an_input_that_cannot_be_built_fails_its_records(monkeypatch):
    # each suite returns its report: an error in a chain, a table or a
    # label fails the records that need it, and a value that a record's
    # text names shows as "?"
    _break_suite_inputs(monkeypatch)
    cat = Catalog()
    degrees = run_suite("degrees", cat=cat)
    assert [c.detail for c in degrees.checks] == ["input refused"] * 10
    assert sum("table maximum ?" in c.identity for c in degrees.checks) == 3
    assert [c.inputs for c in degrees.checks[:9:3]] == [
        "G order 6", "G order 36", "G order 216"]
    cond = run_suite("conductor", cat=cat)
    failed = {c.identity.split(":")[1].split()[0] for c in cond.checks
              if not c.passed}
    assert failed == {"conductor-discriminant", "induced", "unramified"}
    assert all(c.detail == "input refused" for c in cond.checks if not c.passed)
    gallagher = run_suite("gallagher", cat=cat, max_order=8)
    assert gallagher.checks and all(
        not c.passed and c.detail == "input refused"
        and c.inputs.endswith(", invariant thetas=?") for c in gallagher.checks)


def test_cli_prints_the_report_of_inputs_that_cannot_be_built_and_exits_3(
        monkeypatch, capsys):
    from charcond.cli import main
    _break_suite_inputs(monkeypatch)
    monkeypatch.setattr(verify, "default_catalog", Catalog)
    assert main(["verify", "--suite", "all", "--max-order", "6"]) == 3
    out = capsys.readouterr().out
    assert ("[FAIL] degrees: chain degree consistent with table maximum ?  "
            "(G order 36)  input refused") in out
    assert ("[FAIL] gallagher: extensions exist and exhaust Ind theta  "
            "(G=S3, |H|=3, invariant thetas=?)  input refused") in out
    assert "[FAIL] conductor: conductor-discriminant product equals disc" in out
    assert "[PASS] dichotomy" in out


def test_all_suite_merges_everything():
    rep = run_suite("all", cat=Catalog(), max_order=6)
    assert rep.passed
    identities = {c.identity.split(":")[0] for c in rep.checks}
    assert {"clifford", "gallagher", "dichotomy", "classification",
            "degrees", "conductor", "tables"} <= identities


def test_sweep_runs_dixon_once_per_table(monkeypatch):
    # groups with byte-identical tables share one cache, so however warm it
    # already is, no multiplication table goes through Dixon's method or the
    # dual-group build twice
    runs = Counter()

    def counted(build):
        def wrapped(g):
            runs[g.mul.tobytes()] += 1
            return build(g)
        return wrapped

    for name in ("_dixon_rows", "_abelian_rows"):
        monkeypatch.setattr(characters, name,
                            counted(getattr(characters, name)))
    rep = run_suite("all", cat=Catalog(), max_order=12)
    assert rep.passed
    assert [n for n in runs.values() if n > 1] == []


def _oracle_random_character(table, rng):
    # one seeded multiplicity per irreducible, summed by scaling and adding
    total = None
    for row in table:
        m = rng.randint(0, 3)
        if m:
            total = row.scale(m) if total is None else total + row.scale(m)
    return table[0] if total is None else total


def test_random_characters_are_the_seeded_multiplicity_draws():
    cat = Catalog()
    rng = random.Random(verify._RANDOM_SEED)
    oracle = random.Random(verify._RANDOM_SEED)
    trivial = 0
    for name in cat.context_names():
        table = characters.character_table(cat.context(name).group)
        got = verify._random_characters(characters._table_nums(table.group), rng)
        assert len(got) == 2 * verify._ADDITIVITY_TRIALS
        for row in got:
            want = _oracle_random_character(table, oracle)
            assert (want.e, want.den) == (table.group.exponent(), 1)
            assert np.array_equal(row, want.nums)
            trivial += np.array_equal(row, table[0].nums)
    assert trivial > 0


def test_conductor_suite_works_on_arrays(monkeypatch):
    # the random characters are one multiplicity matrix times the table, so
    # no class function is scaled or added; a count matrix is built once per
    # (context, filtration) and once per conjugation batch, and the second
    # count matrix once per filtration for additivity and once per padded
    # filtration for truncation; `conductor_exponent`, which would build one
    # more, is not called
    calls = Counter()

    def refused(name):
        def fn(*args, **kwargs):
            raise AssertionError(f"ClassFunction.{name} called")
        return fn

    build, second = conductor._count_matrix, conductor._class_counts

    def counted_build(filt, image=None):
        calls["filtration" if image is None else "conjugation batch"] += 1
        return build(filt, image)

    def counted_second(filt):
        calls["class counts"] += 1
        return second(filt)

    for name in ("scale", "__add__"):
        monkeypatch.setattr(characters.ClassFunction, name, refused(name))
    for mod in (conductor, verify):
        monkeypatch.setattr(mod, "_count_matrix", counted_build)
        monkeypatch.setattr(mod, "_class_counts", counted_second)
    assert not hasattr(verify, "conductor_exponent")
    assert run_suite("conductor", Catalog()).passed
    assert calls == {"filtration": 3, "conjugation batch": 3,
                     "class counts": 6}


def test_conductor_checks_hold_at_an_unramified_prime():
    # an empty filtration padded with trivial groups is no filtration (G_0
    # would be trivial); every route gives it exponent 0, so each check
    # skips it
    ctx = conductor.GaloisContext(
        Catalog().group("C2"), (conductor.RamificationFiltration(5, 5, ()),))
    assert verify._truncation(ctx) is None
    assert verify._additivity(ctx, random.Random(1)) == ("",)
    assert verify._conjugation(ctx) is None


_SWEEP_BUILDS = {"_dixon_rows": [1] * 24, "_abelian_rows": [1] * 36}


def test_fresh_sweep_at_cap_24_builds_60_tables_once_each_and_checks_60_times(
        fresh_sweep):
    # normal subgroups come from character kernels, so the tables they read
    # must be ones the sweep computes anyway; each of the 60 distinct tables
    # is built once, the 36 abelian ones from the dual group and the rest by
    # Dixon's method, and checked exactly once when it is built; the tables
    # suite validates 40 cached arrays, which are not checked again
    assert fresh_sweep["passed"]
    assert fresh_sweep["builders"] == _SWEEP_BUILDS
    assert fresh_sweep["distinct"] == 60
    assert fresh_sweep["validate"] == 60


def test_fresh_sweep_at_cap_24_checks_the_axioms_once_per_table_content(
        fresh_sweep):
    # the catalog, the products, every subgroup's `as_group` and every
    # quotient build groups with equal tables again and again; each of the
    # 60 distinct multiplication tables goes through `_validate_table` once
    # while it is alive
    assert fresh_sweep["validate_table"] == 60
    assert fresh_sweep["second"]["validate_table"] == 60


def test_fresh_sweep_at_cap_24_makes_58_character_table_calls(fresh_sweep):
    # kernels for normal and derived subgroups are read off the table array,
    # with no `CharacterTable` built for them
    assert fresh_sweep["tables"] == 58


def test_fresh_sweep_at_cap_24_computes_each_restriction_once(fresh_sweep):
    # the suites restrict whole tables, one gather of columns per normal pair,
    # so no class function is restricted one at a time
    assert fresh_sweep["restrict"] == {}


def test_fresh_sweep_at_cap_24_computes_each_induction_once(fresh_sweep):
    # the suites induce whole tables, one matmul per normal pair; the degree
    # chains and the conductor suite ask for 7 distinct inductions
    assert fresh_sweep["induce"] == {"calls": 7}


def test_fresh_sweep_at_cap_24_builds_each_pair_once_with_one_gram_per_identity(
        fresh_sweep):
    # the 117 proper normal pairs of the catalog up to order 24 build their
    # table arrays once each, all pairs of a group in one build: one for
    # each of the 38 groups with a proper normal subgroup (all but C1 and
    # S1); the degree suite's chain steps take orbits without them
    assert fresh_sweep["builds"] == {"_NormalPairs": [1] * 38}
    assert fresh_sweep["pairs"] == {"_NormalPairs": 117}
    # per group, one pass modulo the Gram primes when its pairs' arrays are
    # built together, for the norms of the restrictions, the multiplicities,
    # the norms of the inductions and the induced side of Frobenius
    # reciprocity, whose other side is the multiplicity Gram; Gallagher one
    # pass per group for the norms of the products chi * psi_i of all its
    # prime-index pairs, one product per pair: each of the 38 groups has
    # such a pair, 21 of them one, 10 two and 7 three; the degree chains
    # decompose 4 inductions and certify 3 characters moved onto the
    # chain's group, each by one Gram kernel of one pass.  Table checks call
    # no Gram kernel
    assert fresh_sweep["kernels"] == {"gram:decompose": 4, "gram_diagonal:norm": 3}
    assert fresh_sweep["passes"] == {"_gram_pass:4": 38, "_products:1": 21,
                                     "_products:2": 10, "_products:3": 7,
                                     "gram:1": 4, "gram_diagonal:1": 3}
    # no round computes a full Gram of an array with itself, which only a
    # norm would need: norms read the diagonal form
    assert fresh_sweep["self_grams"] == []


def test_fresh_sweep_at_cap_24_takes_no_more_gram_primes_than_before_carried_bounds(
        fresh_sweep):
    # every pass takes one prime: carried bounds, which may exceed an
    # operand's own largest entry, add none, and neither does a pass for
    # several pairs, which serves the largest of their bounds.  Pinned at
    # 83: 107 at the last commit that scanned every operand for its bound,
    # less the 24 Gallagher passes that one pass per group saves
    assert fresh_sweep["primes"] == {"_gram_pass": 38, "_products": 38,
                                     "gram": 4, "gram_diagonal": 3}
    assert sum(fresh_sweep["primes"].values()) == 83


def test_a_warm_sweep_round_scans_at_most_150_arrays(fresh_sweep):
    # bounds are read off the tables' degrees, so a round after the first
    # scans only where a kernel is given no bound: 126 measured, 56 of them
    # in the exact-value search of Dixon's row order (one per `descend` and
    # `minimal_conductors` call) and 33 in `conductor_exponents` (its rows,
    # and a caller's counts)
    assert sum(fresh_sweep["scans"].values()) <= 150


def test_gallagher_reads_the_evaluation_of_g_its_pair_pass_kept(monkeypatch):
    # over one round, no Gallagher pass evaluates an array at a prime where
    # its group's pair pass evaluated it.  Arrays are keyed by object: G's
    # table is the one array that both passes receive as it is.  Every
    # evaluated array stays alive, so that no id is reused
    evaluated, arrays, built = {"_gram_pass": set(), "_products": set()}, [], []
    evaluate, init = clifford._evaluate, clifford._NormalPairs.__init__

    def counted(a, data):
        caller = sys._getframe(1).f_code.co_qualname.split(".")[-3]
        evaluated[caller].add((id(a), data.prime))
        arrays.append(a)
        return evaluate(a, data)

    def build(self, g, segments):
        built.append(self)
        init(self, g, segments)
    monkeypatch.setattr(clifford, "_evaluate", counted)
    monkeypatch.setattr(clifford._NormalPairs, "__init__", build)
    assert run_suite("all", cat=Catalog(), max_order=24).passed
    assert len(built) == 38 and len(evaluated["_products"]) > 38
    assert {(id(p.tg), p.xg_prime) for p in built} <= evaluated["_gram_pass"]
    assert not evaluated["_products"] & evaluated["_gram_pass"]
    # the kept evaluations: 0.44 MB measured over the 38 groups
    assert sum(p.xg.nbytes for p in built) <= 1 << 19


def test_fresh_sweep_at_cap_24_kernels_match_the_oracle_on_every_call(
        fresh_sweep):
    # every gram and gram_diagonal result of the round, values and dtype,
    # equals the coefficient-correlation kernel of gram_oracle; the pairs'
    # and Gallagher's products are checked against it in test_gram_oracle
    assert sum(fresh_sweep["kernels"].values()) == 7
    assert fresh_sweep["mismatches"] == []


def test_fresh_sweep_at_cap_24_builds_no_values(fresh_sweep):
    # every check reads integer arrays; random characters and the degree
    # chains' moved characters carry their stored forms across
    assert fresh_sweep["values"] == 0


def test_second_sweep_in_one_process_builds_60_tables_again(fresh_sweep):
    # the first round's catalog is unreachable once it ends, so no memo may
    # keep one of its groups, and with it a table, alive into the next round
    assert fresh_sweep["second"] == {"passed": True, "builders": _SWEEP_BUILDS,
                                     "distinct": 60, "validate_table": 60}


def test_sweep_leaves_no_groups_in_reference_cycles():
    # cached table rows and memoized normal subgroups must not point back at
    # their group, or each dead group waits for a full collection
    gc.collect()
    rep = run_suite("all", cat=Catalog(), max_order=12)
    assert rep.passed
    del rep
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        stuck = [type(o).__name__ for o in gc.garbage
                 if isinstance(o, (FiniteGroup, Subgroup, characters.Character))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert stuck == []


def test_suite_cost_reports_wall_and_cpu_time_per_suite():
    # one round: per suite its wall-clock and CPU milliseconds, its records
    # and microseconds per record, then the round's totals
    tool = Path(__file__).resolve().parents[1] / "tools" / "suite_cost.py"
    run = subprocess.run([sys.executable, str(tool), "1"], capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    head, *rows, total = run.stdout.splitlines()
    assert head.split() == ["suite", "ms", "cpu", "ms", "records", "us/record"]
    number = r"\s+[\d.]+"
    for name, row in zip(SUITE_NAMES[:-1], rows, strict=True):
        assert re.fullmatch(rf"{name}{number * 2}\s+\d+{number}", row), row
    assert re.fullmatch(rf"all{number * 2}\s+720", total), total
    usage = subprocess.run([sys.executable, str(tool), "x"], capture_output=True,
                           text=True, timeout=60)
    assert usage.returncode == 2 and "usage" in usage.stderr
