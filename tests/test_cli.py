"""Command-line interface: outputs, formats, exit codes, determinism."""

import hashlib
import json
import time
from pathlib import Path

import pytest

from charcond import characters
from charcond.cli import main
from conftest import run_fresh


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_text(capsys):
    code, out, err = run(capsys, "table", "--group", "C2")
    assert code == 0
    assert "order 2" in out
    assert "X1" in out and "X2" in out


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--group", "S3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 6
    assert [r["degree"] for r in data["rows"]] == [1, 1, 2]


def test_table_equal_tables_computed_once_named_apart(capsys, monkeypatch):
    # S2 has the table of C2, and C2xC2 that of D2
    computed = []
    dixon = characters._dixon_rows

    def counted(g):
        computed.append(g.name)
        return dixon(g)

    monkeypatch.setattr(characters, "_dixon_rows", counted)
    for first, second in (("C2", "S2"), ("D2", "C2xC2")):
        run(capsys, "table", "--group", first)
        code, out, _ = run(capsys, "table", "--group", second)
        assert code == 0
        assert out.startswith(f"character table of {second} (order ")
        assert second not in computed


def test_table_bad_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.grp"
    bad.write_text("table 2\n0 1\n0 1\n")
    code, out, err = run(capsys, "table", "--group", str(bad))
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "table", "--group", "nosuchgroup")
    assert code == 2


def test_conduct_huge_prime_exits_2(capsys, tmp_path):
    ctx = tmp_path / "huge.json"
    ctx.write_text(json.dumps({"group": [[0, 1], [1, 0]], "primes": [
        {"p": 2 ** 89 - 1, "filtration": [[0, 1]]}]}))
    code, out, err = run(capsys, "conduct", "--context", str(ctx), "--all")
    assert code == 2 and out == ""
    assert "exact-test bound" in err


def test_classify_s3(capsys):
    code, out, _ = run(capsys, "classify", "--group", "S3",
                       "--subgroup", "derived")
    assert code == 0
    assert "2 restricted, 1 induced" in out


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--group", "C4",
                       "--subgroup", "gens:2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["index"] == 2
    kinds = [r["kind"] for r in data["results"]]
    assert all(k in ("restricted", "induced") for k in kinds)
    assert all(all(r["verified"].values()) for r in data["results"])


def test_classify_non_normal_exits_2(capsys):
    code, _, err = run(capsys, "classify", "--group", "S3",
                       "--subgroup", "gens:1")
    assert code == 2
    assert "not normal" in err


def test_classify_bad_spec_exits_2(capsys):
    code, _, err = run(capsys, "classify", "--group", "S3",
                       "--subgroup", "everything")
    assert code == 2


def test_conduct_quintic(capsys):
    code, out, _ = run(capsys, "conduct", "--context", "quintic11", "--all")
    assert code == 0
    assert out.count("norm 11,") == 4
    assert "norm 1," in out
    assert "14641" in out and "-> ok" in out


def test_conduct_single_character(capsys):
    code, out, _ = run(capsys, "conduct", "--context", "gauss", "--char", "1")
    assert code == 0
    assert "{2: 2}" in out and "norm 4" in out
    code, _, err = run(capsys, "conduct", "--context", "gauss", "--char", "9")
    assert code == 2


def test_conduct_quad23(capsys):
    code, out, _ = run(capsys, "conduct", "--context", "quad-m23", "--all")
    assert code == 0
    assert "norm 1," in out and "norm 23," in out


def test_conduct_json(capsys):
    code, out, _ = run(capsys, "conduct", "--context", "quintic11",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["conductor_discriminant_ok"] is True
    norms = sorted(c["norm"] for c in data["characters"])
    assert norms == [1, 11, 11, 11, 11]


def test_bound_dataset(capsys):
    code, out, _ = run(capsys, "bound", "--dataset", "martinet-constants")
    assert code == 0
    assert "11034394624" in out
    assert "2^15 * 11^4 * 23" in out


def test_bound_explicit_flags(capsys):
    code, out, _ = run(capsys, "bound", "--disc", "14641", "--q", "5",
                       "--theta-degree", "1", "--norm-ftheta", "1")
    assert code == 0
    assert "11^(4/5)" in out
    assert "6.80948312752" in out


def test_bound_validation_exits_2(capsys):
    code, _, err = run(capsys, "bound", "--disc", "0", "--q", "5",
                       "--theta-degree", "1", "--norm-ftheta", "1")
    assert code == 2
    code, _, err = run(capsys, "bound", "--disc", "4", "--q", "6",
                       "--theta-degree", "1", "--norm-ftheta", "1")
    assert code == 2
    code, _, err = run(capsys, "bound")
    assert code == 2


def test_bound_huge_prime_disc_answers_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "bound", "--disc", "1000000000000000003",
                       "--q", "5", "--theta-degree", "1", "--norm-ftheta", "1")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert "1000000000000000003^(1/5) = 3981.07170553" in out


def test_bound_uncertifiable_disc_exits_2(capsys):
    code, out, err = run(capsys, "bound", "--disc", str(2 ** 89 - 1),
                         "--q", "5", "--theta-degree", "1", "--norm-ftheta", "1")
    assert code == 2 and out == ""
    assert "exact-test bound" in err


def test_bound_json(capsys):
    code, out, _ = run(capsys, "bound", "--dataset", "martinet-constants",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["C"] == 11034394624
    assert data["C_factorization"] == {"2": 15, "11": 4, "23": 1}
    assert data["ramified_primes"] == [2, 11, 23]


def test_verify_small_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "dichotomy",
                       "--max-order", "8")
    assert code == 0
    assert "failed" in out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "conductor",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["failed"] == 0
    assert data["summary"]["total"] == data["summary"]["passed"]


def test_verify_unknown_suite_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--suite", "everything")
    assert code == 2


def test_verify_all_suite_small_cap(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-order", "8")
    assert code == 0
    assert "[FAIL]" not in out
    for tag in ("clifford", "gallagher", "dichotomy", "classification",
                "degrees", "conductor", "tables"):
        assert tag in out


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert "C24" in out and "Q8" in out and "quintic11" in out
    assert "martinet-constants" in out


def test_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "table", "--group", "S3xS3", "--format", "json")
    _, out2, _ = run(capsys, "table", "--group", "S3xS3", "--format", "json")
    assert out1 == out2
    _, b1, _ = run(capsys, "bound", "--dataset", "martinet-constants")
    _, b2, _ = run(capsys, "bound", "--dataset", "martinet-constants")
    assert b1 == b2


def test_precision_flag(capsys):
    code, out, _ = run(capsys, "bound", "--disc", "14641", "--q", "5",
                       "--theta-degree", "1", "--norm-ftheta", "1",
                       "--precision", "6")
    assert code == 0
    assert "6.80948" in out and "6.80948312752" not in out


def test_table_output_file(capsys, tmp_path):
    target = tmp_path / "s3.json"
    code, out, _ = run(capsys, "table", "--group", "S3", "--format", "json",
                       "--output", str(target))
    assert code == 0 and out == ""
    data = json.loads(target.read_text())
    assert data["order"] == 6


def test_failed_identity_exits_3(capsys, monkeypatch):
    from charcond.verify import VerificationReport
    import charcond.cli as cli_mod

    def fake_run_suite(name, max_order=24):
        rep = VerificationReport(name)
        rep.add("demo identity", "G=X", False, "lhs != rhs")
        return rep

    monkeypatch.setattr(cli_mod, "run_suite", fake_run_suite)
    code, out, err = run(capsys, "verify", "--suite", "dichotomy")
    assert code == 3
    assert "internal error" in err


# the byte-exact outputs the benchmark records for its one-shot requests
_EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
_DIGESTS = json.loads(_EXPECTED.read_text(encoding="utf-8"))["oneshot"]["digests"]


@pytest.mark.parametrize("request_key", sorted(
    key for key in _DIGESTS if key.startswith("table ")))
def test_table_output_matches_recorded_digest(capsys, request_key):
    code, out, _ = run(capsys, *request_key.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _DIGESTS[request_key]


# ---------------------------------------------------------------------------
# size caps, each request in a fresh interpreter

_TIMED_TABLE = """
import json, re, sys, time
from pathlib import Path
from charcond.cli import main
# the clock starts after the imports: interpreter start and the numpy import
# are the same for every request and vary with the load on the host
t = time.perf_counter()
code = main(["table", "--group", sys.argv[1]])
status = Path("/proc/self/status").read_text()
print(json.dumps({"code": code, "s": time.perf_counter() - t,
                  "peak_mb": int(re.search(r"VmHWM:\\s*(\\d+)", status)
                                 .group(1)) / 1024}), file=sys.stderr)
"""


def _timed_table(path):
    run = run_fresh(_TIMED_TABLE, args=[str(path)])
    return run, json.loads(run.stderr.strip().splitlines()[-1])


def test_over_cap_requests_exit_2_fast_and_small(tmp_path):
    s8 = tmp_path / "s8.grp"
    s8.write_text("perm 8\ngen 1 0 2 3 4 5 6 7\ngen 1 2 3 4 5 6 7 0\n")
    huge = tmp_path / "huge.grp"
    huge.write_text("table 100000\n" + "0 1 2 3 4 5 6 7 8 9\n" * 20000)
    for path, reason in ((s8, "closure exceeded the cap of 5040"),
                         (huge, "table order 100000 exceeds the cap of 5040")):
        run, got = _timed_table(path)
        assert got["code"] == 2 and reason in run.stderr
        assert got["s"] < 1.0 and got["peak_mb"] < 100, got


@pytest.mark.slow
def test_s7_from_three_lines_answers_within_the_measured_budget(tmp_path):
    # measured 2.3 to 2.9 s and 380 MB VmHWM on a 2-vCPU Xeon
    s7 = tmp_path / "s7.grp"
    s7.write_text("perm 7\ngen 1 0 2 3 4 5 6\ngen 1 2 3 4 5 6 0\n")
    run, got = _timed_table(s7)
    assert got["code"] == 0, run.stderr
    assert "character table of s7 (order 5040, 15 classes)" in run.stdout
    assert got["s"] < 15 and got["peak_mb"] < 600, got
