"""Fixtures shared by the test modules."""

import sys

import pytest

from charcond import cyclotomic


@pytest.fixture
def cyclotomic_calls(monkeypatch):
    """The names of the `Cyclotomic` operations and of the `cyclo_sum` and
    `values` calls made while the test runs, in order.  The functions are
    patched in every charcond module that binds them."""
    calls = []

    def counting(fn, name):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    cls = cyclotomic.Cyclotomic
    for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__pow__", "galois", "conjugate"):
        monkeypatch.setattr(cls, attr, counting(getattr(cls, attr), attr))
    for fn in (cyclotomic.cyclo_sum, cyclotomic.values):
        for name, mod in list(sys.modules.items()):
            if (name.partition(".")[0] == "charcond"
                    and getattr(mod, fn.__name__, None) is fn):
                monkeypatch.setattr(mod, fn.__name__,
                                    counting(fn, fn.__name__))
    return calls


_FRESH_SWEEP = """
import json, sys
from collections import Counter
import numpy as np
from charcond import characters, clifford, cyclotomic, groups
from charcond.catalog import Catalog
from charcond.verify import run_suite

sys.path.insert(0, sys.argv[1])
from gram_oracle import oracle_diagonal, oracle_gram

runs, checks, restricts, induces = Counter(), [], Counter(), Counter()
builds, kernels, built, passes = Counter(), Counter(), Counter(), Counter()
pairs = Counter()
primes, scans = Counter(), Counter()
self_grams, mismatches, validated = [], [], []
check_table = characters._check_table
validate_table = groups._validate_table
restrict, induce = characters.restrict, characters.induce
table = characters.character_table

def counted_builder(name):
    # counts the builds per table and builder
    build = getattr(characters, name)
    def counted(g):
        runs[(name, g.mul.tobytes())] += 1
        return build(g)
    setattr(characters, name, counted)

def counted_validate_table(mul):
    validated.append(len(mul))
    return validate_table(mul)

def builds_per_table():
    return {name: sorted(n for (b, _), n in runs.items() if b == name)
            for name in ("_dixon_rows", "_abelian_rows")}

def counted_check_table(g, *args):
    checks.append(g.order)
    return check_table(g, *args)

def counted_restrict(chi, s):
    restricts["calls"] += 1
    return restrict(chi, s)

def counted_induce(theta, s):
    induces["calls"] += 1
    return induce(theta, s)

def counted_table(g, *args):
    built["character_table"] += 1
    return table(g, *args)

def counted_build(cls):
    # counts the builds per group, and the pairs each build holds
    init = cls.__init__
    def build(self, g, segments):
        builds[(cls.__name__, g.name)] += 1
        pairs[cls.__name__] += len(segments)
        init(self, g, segments)
    cls.__init__ = build

def compared(fn, oracle):
    # counts the calls by calling function, and checks values and dtype
    # against the oracle kernel
    def wrapped(*args):
        caller = sys._getframe(1).f_code.co_name
        kernels[fn.__name__ + ":" + caller] += 1
        if fn.__name__ == "gram" and args[1] is args[0]:
            self_grams.append(caller)
        got, want = fn(*args), oracle(*args)
        if not (got.dtype == want.dtype and np.array_equal(got, want)):
            mismatches.append(fn.__name__ + ":" + caller)
        return got
    return wrapped

def counted_pass(e, bounds, residues):
    # counts the passes modulo the Gram primes by calling function and
    # number of products, and the primes they take by calling function: one
    # `residues` call per prime
    caller = sys._getframe(1).f_code.co_name
    passes[caller + ":" + str(len(bounds))] += 1

    def each_prime(data):
        primes[caller] += 1
        return residues(data)
    return crt(e, bounds, each_prime)

def counted_absmax(a):
    # counts the array scans by calling function
    scans[sys._getframe(1).f_code.co_name] += 1
    return absmax(a)

def counted_values(fn):
    def wrapped(*args):
        out = fn(*args)
        built["values"] += len(out)
        return out
    return wrapped

patches = {"restrict": counted_restrict, "induce": counted_induce,
           "character_table": counted_table,
           "values": counted_values(cyclotomic.values),
           "gram": compared(cyclotomic.gram, oracle_gram),
           "gram_diagonal": compared(cyclotomic.gram_diagonal, oracle_diagonal),
           "_crt": counted_pass}
crt = cyclotomic._crt
originals = {"restrict": restrict, "induce": induce, "character_table": table,
             "values": cyclotomic.values, "gram": cyclotomic.gram,
             "gram_diagonal": cyclotomic.gram_diagonal,
             "_crt": crt}
counted_build(clifford._NormalPairs)
counted_builder("_dixon_rows")
counted_builder("_abelian_rows")
characters._check_table = counted_check_table
groups._validate_table = counted_validate_table
for name, mod in list(sys.modules.items()):
    for attr, fn in originals.items():
        if name.startswith("charcond") and getattr(mod, attr, None) is fn:
            setattr(mod, attr, patches[attr])
rep = run_suite("all", cat=Catalog(), max_order=24)
out = {"passed": rep.passed, "builders": builds_per_table(),
       "distinct": len({table for _, table in runs}),
       "validate": len(checks), "validate_table": len(validated),
       "restrict": dict(restricts),
       "induce": dict(induces),
       "builds": {cls: sorted(n for (c, _), n in builds.items() if c == cls)
                  for cls in ("_NormalPairs",)},
       "pairs": dict(pairs),
       "kernels": dict(kernels), "passes": dict(passes),
       "primes": dict(primes),
       "self_grams": self_grams,
       "mismatches": mismatches, "values": built["values"],
       "tables": built["character_table"]}
# no memo may carry a group of one round into the next
runs.clear()
validated.clear()
# the second round counts its array scans, patching `_absmax` in every
# module that binds it, since a module that imports it by name keeps its own
absmax = cyclotomic._absmax
for name, mod in list(sys.modules.items()):
    if name.startswith("charcond") and getattr(mod, "_absmax", None) is absmax:
        mod._absmax = counted_absmax
rep = run_suite("all", cat=Catalog(), max_order=24)
out["second"] = {"passed": rep.passed, "builders": builds_per_table(),
                 "distinct": len({table for _, table in runs}),
                 "validate_table": len(validated)}
out["scans"] = dict(scans)
cat = Catalog()
for name in ("Q8xS3xC4", "C4xC4xC3", "S3xS3xS3"):
    characters.character_table(cat.group(name))
out["caches"] = {
    fn: getattr(cyclotomic, fn).cache_info()._asdict()
    for fn in ("cyclotomic_polynomial", "_power_array", "_rebase_data",
               "_evaluation_data", "_fold_bound", "_search_steps",
               "_root_keys")}
print(json.dumps(out))
"""


def run_fresh(code: str, timeout: float = 120, args=(), stdout=None):
    """Run Python `code` in a fresh interpreter that imports charcond from
    this checkout; returns the completed process.  Its stdout is captured
    unless `stdout` names a file or descriptor to write to instead."""
    import os
    import subprocess
    from pathlib import Path
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, "-c", code, *args],
                          stdout=subprocess.PIPE if stdout is None else stdout,
                          stderr=subprocess.PIPE, text=True, timeout=timeout,
                          env=env)


@pytest.fixture(scope="session")
def fresh_sweep():
    """Counts from `run_suite("all")` at cap 24 in a fresh interpreter: the
    builds per table by each table builder (`_dixon_rows` and
    `_abelian_rows`) and the distinct tables built, the group-axiom checks
    (`_validate_table`), the exact table checks (`_check_table`, which both
    builders run, and `validate()` on an array that is not the cached one),
    the `restrict`, `induce` and
    `character_table` calls, how many times each group built the arrays of
    its normal pairs (`clifford._NormalPairs`) and how many pairs those
    builds held, the Gram kernel calls by kernel and calling function
    (each compared with the oracle kernel of `gram_oracle`, with the callers
    of any mismatch and of any `gram` of an array with itself), the passes
    modulo the Gram primes (`cyclotomic._crt`) by calling function
    and number of products, one per group for the Gram products of all its
    normal pairs (`_NormalPairs._gram_pass`) and one per group for
    Gallagher's products of all its prime-index pairs (`clifford._products`),
    and the primes those passes take by calling function, and the
    number of `Cyclotomic` values built; the builds and axiom checks of a
    second round in the same interpreter, and the arrays it scans with
    `cyclotomic._absmax`; and then the conductor cache
    statistics after the Q8xS3xC4, C4xC4xC3 and S3xS3xS3 tables as well."""
    import json
    from pathlib import Path
    run = run_fresh(_FRESH_SWEEP, args=(str(Path(__file__).resolve().parent),))
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)
