"""Malformed input through the CLI parsers exits with code 2, never 1 or 3.

Hypothesis feeds generated group-file text (`table --group FILE`),
context-JSON documents (`conduct --context FILE`), subgroup specs
(`classify --subgroup`) and conductor caps (`bound --T`) through `cli.main`.
An uncaught exception would be exit code 1, and 3 means a broken internal
invariant; bad input may give neither.  Every input that once escaped the
parsers is an explicit example.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from charcond.cli import main


def exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(argv)


def exit_code_with_file(command, flag, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_text(text, encoding="utf-8")
        return exit_code([command, flag, str(path)])


# ---------------------------------------------------------------------------
# group files: headers and entries from a small vocabulary, orders at most 4
# so that a file that happens to be valid stays cheap

_TOKENS = st.integers(-2, 5).map(str) | st.sampled_from(
    ["99999999999999999999", "-1", "1.5", "1e30", "x", "gen", "table",
     "perm", "#", "True", ""])


@st.composite
def group_texts(draw):
    head = draw(st.sampled_from(["table", "perm", "gen", "", "table 2 2"]))
    n = draw(st.integers(0, 4).map(str) | _TOKENS)
    body = draw(st.lists(st.lists(_TOKENS, max_size=6).map(" ".join),
                         max_size=5))
    return "\n".join([f"{head} {n}"] + body)


@settings(max_examples=150, deadline=None)
@given(group_texts())
@example("table 2\n0 1\n1 99999999999999999999\n")
@example("table 2\n0 1\n1 0\n")
@example("perm 3\ngen 1 2 0\n")
def test_group_files_exit_0_or_2(text):
    assert exit_code_with_file("table", "--group", text) in (0, 2)


# ---------------------------------------------------------------------------
# context documents: near-valid shapes with any field replaced by junk

_LEAF = (st.none() | st.booleans() | st.integers(-10 ** 30, 10 ** 30)
         | st.floats(allow_nan=False) | st.text(max_size=3))
_JUNK = st.recursive(
    _LEAF, lambda inner: (st.lists(inner, max_size=3)
                          | st.dictionaries(st.text(max_size=3), inner,
                                            max_size=3)),
    max_leaves=8)
_GROUPS = st.sampled_from([[[0]], [[0, 1], [1, 0]],
                           [[0, 1, 2], [1, 2, 0], [2, 0, 1]]])
_PRIME = st.fixed_dictionaries(
    {"p": st.sampled_from([2, 3, 5, 11]) | _JUNK},
    optional={"residue_norm": st.sampled_from([2, 3, 4, 9]) | _JUNK,
              "filtration": (st.lists(st.lists(st.integers(0, 2), max_size=3),
                                      max_size=3) | _JUNK)})
_CONTEXT = st.fixed_dictionaries(
    {"group": _GROUPS | _JUNK, "primes": st.lists(_PRIME, max_size=2) | _JUNK},
    optional={"disc": st.integers(-10 ** 6, 10 ** 6) | _JUNK,
              "labels": st.dictionaries(st.text(max_size=3),
                                        st.text(max_size=3), max_size=2) | _JUNK})

_C2 = [[0, 1], [1, 0]]


@settings(max_examples=200, deadline=None)
@given(_CONTEXT | _JUNK)
@example({"group": [[0, 1.9], [1, 0.2]], "primes": []})
@example({"group": [[0, 1], [1, 1e30]], "primes": []})
@example(5)
@example({"group": _C2, "primes": 3})
@example({"group": _C2, "primes": [{"p": 2, "residue_norm": None,
                                     "filtration": [[0, 1]]}]})
@example({"group": _C2, "primes": [{"p": 2, "filtration": [5]}]})
@example({"group": _C2, "primes": [{"p": 2, "residue_norm": 1,
                                     "filtration": [[0, 1], [0, 1]]}]})
@example({"group": _C2, "primes": [], "labels": 5})
@example({"group": _C2, "primes": [], "disc": [1]})
@example({"group": _C2, "primes": [{"p": 2, "filtration": [[0, 1]]}],
          "disc": 2})
def test_context_documents_exit_0_or_2(doc):
    assert exit_code_with_file("conduct", "--context", json.dumps(doc)) in (0, 2)


# ---------------------------------------------------------------------------
# subgroup specs and conductor caps


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["gens:", "elements:"]),
       st.lists(st.integers(-8, 8) | st.just(10 ** 20), max_size=3))
@example("gens:", [100])
@example("gens:", [-1])
@example("gens:", [3])
def test_subgroup_specs_exit_0_or_2(kind, elements):
    spec = kind + ",".join(map(str, elements))
    assert exit_code(["classify", "--group", "S3", "--subgroup", spec]) in (0, 2)


@settings(max_examples=60, deadline=None)
@given(st.from_regex(r"-?[0-9]{0,4}(/-?[0-9]{0,4})?", fullmatch=True))
@example("1/0")
@example("753664")
def test_bound_caps_exit_0_or_2(cap):
    argv = ["bound", "--disc", "5", "--q", "2", "--theta-degree", "1",
            "--norm-ftheta", "1", "--T", cap]
    assert exit_code(argv) in (0, 2)


@pytest.mark.parametrize("argv, message", [
    (["classify", "--group", "S3", "--subgroup", "gens:100"], "out of range"),
    # -1 must not wrap around to the last element
    (["classify", "--group", "S3", "--subgroup", "gens:-1"], "out of range"),
    (["bound", "--disc", "5", "--q", "2", "--theta-degree", "1",
      "--norm-ftheta", "1", "--T", "1/0"], "zero denominator"),
])
def test_reported_inputs_exit_2_with_a_message(argv, message):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and message in err.getvalue()


# ---------------------------------------------------------------------------
# --precision: read by conduct and bound only, and bounded


@pytest.mark.parametrize("command", [
    ["table", "--group", "C2"],
    ["classify", "--group", "S3", "--subgroup", "derived"],
    ["verify", "--suite", "degrees", "--max-order", "4"],
    ["catalog", "list"],
])
def test_precision_is_not_accepted_where_it_is_not_read(command):
    assert exit_code(command + ["--precision", "5"]) == 2
    assert exit_code(command) == 0


@pytest.mark.parametrize("cap, code", [
    ("2", 0), ("4", 0), ("0", 2), ("-3", 2), ("x", 2), ("", 2)])
def test_max_order_is_a_positive_integer(cap, code):
    # a cap below 1 would sweep nothing and pass with "summary: 0/0 passed"
    assert exit_code(["verify", "--suite", "dichotomy", "--max-order", cap]) == code


@pytest.mark.parametrize("argv, message", [
    (["verify", "--suite", "dichotomy", "--max-order", " -3"],
     "argument --max-order: max order must be a positive integer, got ' -3'"),
    (["bound", "--dataset", "martinet-constants", "--precision", "1001"],
     "argument --precision: precision must be an integer from 1 to 1000, "
     "got '1001'"),
    # a digit that int() does not read
    (["conduct", "--context", "gauss", "--precision", "\u00b2"],
     "argument --precision: precision must be an integer from 1 to 1000, "
     "got '\u00b2'"),
])
def test_integer_flags_name_their_range(argv, message):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 2
    assert out.getvalue() == ""
    assert err.getvalue().endswith(f" error: {message}\n")


@pytest.mark.parametrize("digits, code", [
    ("1", 0), ("1000", 0), ("1001", 2), ("100000", 2), ("0", 2), ("-3", 2),
    ("x", 2)])
def test_precision_is_bounded(digits, code):
    assert exit_code(["bound", "--dataset", "martinet-constants",
                      "--precision", digits]) == code
    if code == 2:
        assert exit_code(["conduct", "--context", "gauss",
                          "--precision", digits]) == 2
