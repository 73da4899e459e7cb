"""Command-line interface: outputs, formats, exit codes, determinism."""

import hashlib
import json
import os
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
    # S2 has the table of C2, and C2xC2 that of D2; all four are abelian,
    # so the dual-group build is the one that would run
    computed = []

    def counted(build):
        def wrapped(g):
            computed.append(g.name)
            return build(g)
        return wrapped

    for name in ("_dixon_rows", "_abelian_rows"):
        monkeypatch.setattr(characters, name,
                            counted(getattr(characters, name)))
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


@pytest.mark.parametrize("name", ["x", "C2x", "xC3", "C2xx", "", " "])
def test_table_name_with_an_empty_factor_exits_2(capsys, name):
    code, out, err = run(capsys, "table", "--group", name)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


_SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize("argv, what", [
    (("table", "--group", ""), "catalog group"),
    (("table", "--group", _SRC), "catalog group"),
    (("conduct", "--context", ""), "catalog context"),
])
def test_an_empty_or_directory_ref_is_an_unknown_name(capsys, argv, what):
    # a directory, and the empty path (the current one), is not a file
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"is neither a {what} nor a readable file" in err
    assert "Is a directory" not in err


def test_conduct_huge_prime_exits_2(capsys, tmp_path):
    ctx = tmp_path / "huge.json"
    ctx.write_text(json.dumps({"group": [[0, 1], [1, 0]], "primes": [
        {"p": 2 ** 89 - 1, "filtration": [[0, 1]]}]}))
    code, out, err = run(capsys, "conduct", "--context", str(ctx), "--all")
    assert code == 2 and out == ""
    assert "exact-test bound" in err


def test_conduct_residue_norm_1_exits_2(capsys, tmp_path):
    # a residue field has p^f elements with f >= 1, so 1 = 2^0 is refused
    ctx = tmp_path / "norm1.json"
    ctx.write_text(json.dumps({"group": [[0, 1], [1, 0]], "primes": [
        {"p": 2, "residue_norm": 1, "filtration": [[0, 1], [0, 1]]}]}))
    code, out, err = run(capsys, "conduct", "--context", str(ctx), "--all")
    assert code == 2 and out == ""
    assert "residue norm 1 is not a power of 2" in err


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


def test_classify_refuses_a_set_without_inverses_by_a_product(capsys):
    # in C4, 1 has order 4: its inverse 3 is missing, and 1 * 1 = 2 is the
    # first product outside the set
    assert run(capsys, "classify", "--group", "C4",
               "--subgroup", "elements:0,1") == (
        2, "", "error: subgroup not closed under product at (1, 1)\n")


def test_classify_bad_spec_exits_2(capsys):
    code, _, err = run(capsys, "classify", "--group", "S3",
                       "--subgroup", "everything")
    assert code == 2


@pytest.mark.parametrize("spec, message", [
    ("gens:x", "bad generator list in 'gens:x'"),
    ("elements:0,y", "bad element list in 'elements:0,y'"),
    ("cosets:1",
     "bad subgroup spec 'cosets:1'; use 'derived', 'gens:...', or 'elements:...'"),
])
def test_classify_bad_spec_message(capsys, spec, message):
    assert run(capsys, "classify", "--group", "C4", "--subgroup", spec) == (
        2, "", f"error: {message}\n")


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


def test_conduct_char_is_its_row_of_all(capsys):
    from charcond.catalog import default_catalog
    for ctx in default_catalog().context_names():
        _, out, _ = run(capsys, "conduct", "--context", ctx, "--all",
                        "--format", "json")
        every = json.loads(out)["characters"]
        for i, entry in enumerate(every):
            code, out, _ = run(capsys, "conduct", "--context", ctx,
                               "--char", str(i), "--format", "json")
            assert code == 0
            assert json.loads(out)["characters"] == [entry]


def test_conduct_char_reads_only_its_own_row(capsys, tmp_path):
    # wild at 2 over C4 with G_1 = C2: rows 2 and 3 have exponent 3/2
    ctx = tmp_path / "c4.json"
    ctx.write_text(json.dumps({
        "group": [[(i + j) % 4 for j in range(4)] for i in range(4)],
        "primes": [{"p": 2, "filtration": [[0, 1, 2, 3], [0, 2]]}]}))
    code, out, _ = run(capsys, "conduct", "--context", str(ctx), "--char", "1")
    assert code == 0 and "exponents {2: 1}, norm 2," in out
    code, out, err = run(capsys, "conduct", "--context", str(ctx), "--char", "2")
    assert (code, out) == (2, "")
    assert "conductor exponent at 2 is 3/2" in err


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


_TIMED_BOUND = """
import sys, time
from charcond.cli import main
t = time.perf_counter()
code = main(["bound", "--disc", str(65537 ** 400), "--q", "2",
             "--theta-degree", "1", "--norm-ftheta", "7"])
print(code, time.perf_counter() - t, file=sys.stderr)
"""


def test_bound_on_a_large_prime_power_disc_answers_fast():
    # 65537^400 has 1,927 digits; the request factors it once
    run = run_fresh(_TIMED_BOUND)
    code, seconds = run.stderr.split()
    assert code == "0" and float(seconds) < 1
    assert "disc^(1/q) * N^(1/t1): 7 * 65537^200 = 1.38806408137e+964" in run.stdout


def test_bound_uncertifiable_disc_exits_2(capsys):
    code, out, err = run(capsys, "bound", "--disc", str(2 ** 89 - 1),
                         "--q", "5", "--theta-degree", "1", "--norm-ftheta", "1")
    assert code == 2 and out == ""
    assert "exact-test bound" in err


def test_bound_with_c_1_ends_without_a_factorization(capsys):
    argv = ("bound", "--disc", "1", "--q", "2", "--theta-degree", "1",
            "--norm-ftheta", "1", "--T", "1")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[-1] == "  global constant C = disc * T = 1"
    code, out, _ = run(capsys, *argv, "--format", "json")
    data = json.loads(out)
    assert (data["C"], data["C_factorization"]) == (1, {})


def test_bound_json(capsys):
    code, out, _ = run(capsys, "bound", "--dataset", "martinet-constants",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["C"] == 11034394624
    assert data["C_factorization"] == {"2": 15, "11": 4, "23": 1}
    assert data["ramified_primes"] == [2, 11, 23]


@pytest.mark.parametrize("precision", ["1", "12", "200"])
def test_bound_text_lines_carry_the_json_values(capsys, precision):
    # the text report renders the JSON payload: each radical line ends with
    # its exact string and its decimal string, and the C line shows C
    for request in sorted({key.replace(" --format json", "") for key in _DIGESTS
                           if key.startswith("bound ")}):
        argv = [*request.split(), "--precision", precision]
        _, text, _ = run(capsys, *argv)
        _, out, _ = run(capsys, *argv, "--format", "json")
        data = json.loads(out)
        lines = text.splitlines()
        for line, key in zip(lines[1:4], ("restricted_certified",
                                          "restricted_stated", "induced")):
            assert line.endswith(f": {data[key]} = {data[key + '_decimal']}")
        if "C" in data:
            assert f"global constant C = disc * T = {data['C']}" in lines[4]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_bound_request_renders_each_radical_once(capsys, monkeypatch, fmt):
    from charcond.bounds import RadicalValue
    calls = []
    decimal = RadicalValue.decimal

    def counted(self, digits=12):
        calls.append(digits)
        return decimal(self, digits)

    monkeypatch.setattr(RadicalValue, "decimal", counted)
    code, _, _ = run(capsys, "bound", "--dataset", "martinet-constants",
                     "--precision", "30", "--format", fmt)
    assert code == 0
    assert calls == [30, 30, 30]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_bound_request_factors_each_input_once(capsys, monkeypatch, fmt):
    # both cases come from one pair of radical values; the primes those
    # values factor again are not inputs, and C = disc * T is neither
    from charcond import bounds
    calls = []
    factor = bounds.factor_integer

    def counted(n):
        calls.append(n)
        return factor(n)

    monkeypatch.setattr(bounds, "factor_integer", counted)
    code, _, _ = run(capsys, "bound", "--disc", "14641", "--q", "5",
                     "--theta-degree", "2", "--norm-ftheta", "12", "--T", "3",
                     "--format", fmt)
    assert code == 0
    assert [n for n in calls if n in (14641, 12)] == [14641, 12]


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


# sha256 of `charcond catalog list` stdout, recorded while the names, the
# contexts and the product cap were each written out twice
_CATALOG_LIST_DIGESTS = {
    "text": "217a1a938759d899bee6f422555dc888125bac041072d4e63665814589c1945f",
    "json": "f0cfdf12095053cc2645f72f022132a44f3b1fabe25d9a89b571c688c5a0b8cf",
}


@pytest.mark.parametrize("fmt", sorted(_CATALOG_LIST_DIGESTS))
def test_catalog_list_matches_recorded_digest(capsys, fmt):
    code, out, _ = run(capsys, "catalog", "list", "--format", fmt)
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == _CATALOG_LIST_DIGESTS[fmt])


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


_MAIN = """
import sys
from charcond.cli import main
sys.exit(main(sys.argv[1:]))
"""

# `verify` with a report that fails one identity
_FAILING_VERIFY = """
import sys
from charcond import verify
from charcond.cli import main
from charcond.verify import VerificationReport

def run_suite(name, max_order=24):
    rep = VerificationReport(name)
    rep.add("demo identity", "G=X", False, "lhs != rhs")
    return rep

verify.run_suite = run_suite
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("code, argv, err", [
    (_MAIN, ["table", "--group", "C24"], (0, "")),
    (_FAILING_VERIFY, ["verify", "--suite", "dichotomy"],
     (3, "internal error: 1 verification identities failed\n")),
], ids=["table", "failed verify"])
def test_a_closed_stdout_pipe_keeps_the_exit_code_and_stderr(code, argv, err):
    # the read end is closed before the command starts, so its first write
    # to stdout meets a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = run_fresh(code, args=argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_stdout_exits_2():
    with open("/dev/full", "w") as full:
        run = run_fresh(_MAIN, args=["table", "--group", "S3"], stdout=full)
    assert run.returncode == 2
    assert run.stderr.startswith("error: cannot write stdout: [Errno 28] ")
    assert "Traceback" not in run.stderr


def test_failed_identity_exits_3(capsys, monkeypatch):
    from charcond import verify
    from charcond.verify import VerificationReport

    def fake_run_suite(name, max_order=24):
        rep = VerificationReport(name)
        rep.add("demo identity", "G=X", False, "lhs != rhs")
        return rep

    # `verify` looks run_suite up in charcond.verify when it runs
    monkeypatch.setattr(verify, "run_suite", fake_run_suite)
    code, out, err = run(capsys, "verify", "--suite", "dichotomy")
    assert code == 3
    assert "internal error" in err


# the byte-exact outputs the benchmark records for its one-shot requests
_EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
_DIGESTS = json.loads(_EXPECTED.read_text(encoding="utf-8"))["oneshot"]["digests"]


def _check_recorded_digest(capsys, request_key):
    code, out, _ = run(capsys, *request_key.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _DIGESTS[request_key]


@pytest.mark.parametrize("request_key", sorted(
    key for key in _DIGESTS if key.startswith("table ")))
def test_table_output_matches_recorded_digest(capsys, request_key):
    _check_recorded_digest(capsys, request_key)


# sha256 of stdout for tables that repeat their values heavily, recorded
# before each distinct value was rendered once: C6xC6xC6 has 46,656 entries
# and 6 distinct values, C128 from one generator 16,384 and 128
_REPEATED_VALUE_DIGESTS = {
    "C6xC6xC6 text":
        "3fac929406db8e1ba7ba8519410e10f886022ff39faa58b61f9ed6609363d1d7",
    "C6xC6xC6 json":
        "cc9989fe42ebd1d688692c131a77c451a53d28f42ca75702d19244de75edef3b",
    "c128 text":
        "303b0e4f8063600c74c6fe1022b2f09cb194530a00028c02b1a202aeda4573e6",
}


@pytest.mark.parametrize("key", sorted(_REPEATED_VALUE_DIGESTS))
def test_repeated_value_table_matches_recorded_digest(capsys, tmp_path, key):
    group, fmt = key.split()
    if group == "c128":
        group = str(_perm_file(tmp_path / "c128.grp", 128,
                               [[(i + 1) % 128 for i in range(128)]]))
    code, out, _ = run(capsys, "table", "--group", group, "--format", fmt)
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == _REPEATED_VALUE_DIGESTS[key])


# the other recorded requests: bound, classify and conduct
@pytest.mark.parametrize("request_key", sorted(
    key for key in _DIGESTS if not key.startswith("table ")))
def test_request_output_matches_recorded_digest(capsys, request_key):
    _check_recorded_digest(capsys, request_key)


# sha256 of `charcond verify --suite all` stdout, recorded before restrictions
# and inertia groups were memoized and norms read off the Gram numerators
_VERIFY_ALL_DIGESTS = {
    "text": "5241cdb7127e9a8b8f1175ca31f16c60194b9396a95f7e04f9e3827c30e1d5a3",
    "json": "df95e7fa682c546b421b4cb207152d7998991976525b2c5dfe1c3132c381a4ab",
}


@pytest.mark.parametrize("fmt", sorted(_VERIFY_ALL_DIGESTS))
def test_verify_all_output_matches_recorded_digest(capsys, fmt):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_ALL_DIGESTS[fmt]


_DEGREE_200_BOUND = ["bound", "--disc", "5", "--q", "2", "--theta-degree",
                     "100", "--norm-ftheta", "7", "--precision"]
# sha256 of the stdout of `charcond bound` above, whose induced case is a root
# of degree 200, recorded while each mantissa was found by bisection: 4 s at
# 300 digits and 73 s at 1000
_DEGREE_200_DIGESTS = {
    "300": "396b1b9781978708f771f57f3f1ea969d4396d2228ae0adc8addae0662b965f1",
    "1000": "ff0952caebb5047993c348cf7ddd06d560a0c0ac05eb210c0ac0279488e11b56",
}


@pytest.mark.parametrize("precision", sorted(_DEGREE_200_DIGESTS))
def test_a_degree_200_bound_matches_its_digest_within_2_s(precision):
    start = time.perf_counter()
    run = run_fresh(_MAIN, args=_DEGREE_200_BOUND + [precision])
    elapsed = time.perf_counter() - start
    assert run.returncode == 0, run.stderr
    assert (hashlib.sha256(run.stdout.encode()).hexdigest()
            == _DEGREE_200_DIGESTS[precision])
    assert elapsed < 2.0


def test_the_bound_of_value_1_at_one_digit_reads_1_0(capsys):
    argv = ["bound", "--disc", "1", "--q", "2", "--theta-degree", "1",
            "--norm-ftheta", "1", "--precision", "1"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert [line.rsplit(": ", 1)[1] for line in out.splitlines()[1:]] == \
        ["1 = 1.0"] * 3
    code, out, _ = run(capsys, *argv, "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert [data[f"{key}_decimal"] for key in
            ("restricted_certified", "restricted_stated", "induced")] == \
        ["1.0"] * 3


def test_an_over_cap_decimal_is_refused_before_any_decimal(capsys,
                                                          monkeypatch):
    # the certified root (degree 125) is under the cap and the stated one
    # (degree 250) over it: no root is taken before the refusal
    from charcond import bounds
    calls = []
    real = bounds._iroot
    monkeypatch.setattr(bounds, "_iroot",
                        lambda n, d: calls.append(d) or real(n, d))
    code, out, err = run(capsys, "bound", "--disc", "5", "--q", "2",
                         "--theta-degree", "125", "--norm-ftheta", "7",
                         "--precision", "1000")
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("error: 1000 digits of a root of degree 250 need")


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


def _perm_file(path, degree, gens):
    path.write_text(f"perm {degree}\n" + "".join(
        "gen " + " ".join(map(str, g)) + "\n" for g in gens))
    return path


def test_over_cap_requests_exit_2_fast_and_small(tmp_path):
    s8 = _perm_file(tmp_path / "s8.grp", 8, [(1, 0, 2, 3, 4, 5, 6, 7),
                                             (1, 2, 3, 4, 5, 6, 7, 0)])
    huge = tmp_path / "huge.grp"
    huge.write_text("table 100000\n" + "0 1 2 3 4 5 6 7 8 9\n" * 20000)
    # wide inputs: one 60000-cycle, and S8 acting on 7500 disjoint copies
    # of 8 points, whose generators have orders 2 and 8
    cycle = _perm_file(tmp_path / "cycle.grp", 60000,
                       [[(i + 1) % 60000 for i in range(60000)]])
    wide_s8 = _perm_file(tmp_path / "wide_s8.grp", 60000, [
        [i ^ 1 if i % 8 < 2 else i for i in range(60000)],
        [i - i % 8 + (i + 1) % 8 for i in range(60000)]])
    wide = "closure on 60000 points exceeded the cap of 4194304 stored entries"
    for path, reason in ((s8, "closure exceeded the cap of 5040"),
                         (huge, "table order 100000 exceeds the cap of 5040"),
                         (cycle, wide), (wide_s8, wide)):
        run, got = _timed_table(path)
        assert got["code"] == 2 and reason in run.stderr
        assert got["s"] < 1.0 and got["peak_mb"] < 100, got


def test_an_over_cap_decimal_exits_2_fast():
    # 1000 digits of roots of degree 1000 and 2000
    argv = ["bound", "--disc", "5", "--q", "2", "--theta-degree", "1000",
            "--norm-ftheta", "7", "--precision", "1000"]
    start = time.perf_counter()
    run = run_fresh(_MAIN, args=argv)
    elapsed = time.perf_counter() - start
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr.startswith(
        "error: 1000 digits of a root of degree 1000 need integers of ")
    assert "over the cap of" in run.stderr
    assert elapsed < 1.0


def test_large_exponent_table_exits_2_fast(tmp_path):
    # one generator of order 131: 131 classes pass the class cap, but
    # k^3 phi(exp G) is over the work cap
    c131 = tmp_path / "c131.grp"
    c131.write_text("perm 131\ngen " + " ".join(
        str((i + 1) % 131) for i in range(131)) + "\n")
    run, got = _timed_table(c131)
    assert got["code"] == 2, run.stderr
    assert "131 classes at exponent 131 need" in run.stderr
    assert got["s"] < 1.0, got


@pytest.mark.slow
def test_s7_from_three_lines_answers_within_the_measured_budget(tmp_path):
    # measured 1.5 s and 302 MB VmHWM after import on a 2-vCPU Xeon: a
    # 1.2 to 1.3 s build and a 0.16 to 0.18 s table
    s7 = tmp_path / "s7.grp"
    s7.write_text("perm 7\ngen 1 0 2 3 4 5 6\ngen 1 2 3 4 5 6 0\n")
    run, got = _timed_table(s7)
    assert got["code"] == 0, run.stderr
    assert "character table of s7 (order 5040, 15 classes)" in run.stdout
    assert got["s"] < 15 and got["peak_mb"] < 600, got
