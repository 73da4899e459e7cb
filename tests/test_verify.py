"""Verification report plumbing and small-cap suite runs."""

import json
from collections import Counter

import pytest

from charcond import characters
from charcond.catalog import Catalog
from charcond.errors import InvalidData
from charcond.verify import SUITE_NAMES, VerificationReport, run_suite


def test_report_roundtrip():
    rep = VerificationReport("demo")
    rep.add("identity A", "G=X", True)
    rep.add("identity B", "G=Y", False, "lhs 2 != rhs 3")
    data = rep.to_json_dict()
    back = VerificationReport.from_json_dict(json.loads(json.dumps(data)))
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


def test_all_suite_merges_everything():
    rep = run_suite("all", cat=Catalog(), max_order=6)
    assert rep.passed
    identities = {c.identity.split(":")[0] for c in rep.checks}
    assert {"clifford", "gallagher", "dichotomy", "classification",
            "degrees", "conductor", "tables"} <= identities


def test_sweep_runs_dixon_once_per_table(monkeypatch):
    # groups with byte-identical tables share one cache, so however warm it
    # already is, no multiplication table goes through Dixon's method twice
    runs = Counter()
    dixon = characters._dixon_rows

    def counted(g):
        runs[g.mul.tobytes()] += 1
        return dixon(g)

    monkeypatch.setattr(characters, "_dixon_rows", counted)
    rep = run_suite("all", cat=Catalog(), max_order=12)
    assert rep.passed
    assert [n for n in runs.values() if n > 1] == []
