"""Every bound is at least the largest |entry| of what it stands for.

Integer widths and Gram primes come from bounds read off the tables'
degrees (`characters._table_bound`) instead of scans of the operands.  A
bound below an operand's real maximum would let an int64 product overflow
silently, or leave `_crt` too few primes, so a fresh interpreter wraps
`_table_bound` and every function that takes a bound and checks each one
against `_absmax` of its operand over a whole sweep round at cap 24, the
Q8xS3xC4, S3xS3xS3 and C4xC4xC3 tables with their normal pairs and
Gallagher products, and C105 with its own.  The catalog's exponents are all
below 105, where no lift grows a table's numerators, so C105 is the input
where one does: H = C35 lifted to conductor 105 has a numerator 2 where H's
own table has 1.  On the tables themselves the bound is exact, so that it
takes no more Gram primes than a scan would.
"""

import ast
import json
from pathlib import Path

from conftest import run_fresh

from charcond.catalog import Catalog
from charcond.characters import _table_bound, _table_nums
from charcond.cyclotomic import _absmax
from charcond.groups import build_from_permutations

SRC = Path(__file__).resolve().parents[1] / "src" / "charcond"

# the operand and bound parameters of every function of `src/` that takes a
# bound on an operand, by module
_TAKES = {
    "cyclotomic": {"_matmul": [["a", "bound_a"], ["b", "bound_b"]],
                   "scaled": [["a", "bound"]], "lift": [["nums", "bound"]]},
    "characters": {"_check_table": [["nums", "bound"]],
                   "_induction_sums": [["nums", "bound"]]},
}

_AUDIT = """
import importlib, inspect, json, sys
from collections import Counter
import numpy as np
from charcond import characters, clifford
from charcond.arith import is_prime
from charcond.catalog import Catalog
from charcond.cyclotomic import _absmax
from charcond.groups import build_from_permutations, normal_subgroups
from charcond.verify import run_suite

checked, short, grown = Counter(), [], []

def check(name, array, bound):
    checked[name] += 1
    if bound < _absmax(np.asarray(array)):
        short.append(name)

def audited(fn, takes):
    sig = inspect.signature(fn)
    def wrapped(*args, **kwargs):
        given = sig.bind(*args, **kwargs).arguments
        for array, bound in takes:
            if given.get(bound) is not None:
                check(fn.__name__, given[array], given[bound])
        out = fn(*args, **kwargs)
        if fn.__name__ == "lift" and given.get("bound") is not None:
            if _absmax(out) > given["bound"]:
                grown.append(out.shape[2])
        return out
    return wrapped

def audited_table_bound(nums, e):
    # the bound of every table, gather, lift and induced table
    out = table_bound(nums, e)
    check("_table_bound", nums, out)
    return out

table_bound = characters._table_bound
wrapped = {table_bound: audited_table_bound}
for module, takes in json.loads(sys.argv[1]).items():
    home = importlib.import_module("charcond." + module)
    for name, pairs in takes.items():
        wrapped[getattr(home, name)] = audited(getattr(home, name), pairs)
# patched in every module that binds them
for mod in [m for n, m in sys.modules.items() if n.startswith("charcond")]:
    for name, fn in list(vars(mod).items()):
        if callable(fn) and fn in wrapped:
            setattr(mod, name, wrapped[fn])

def pairs_and_products(g):
    # the pairs' verdicts, and Gallagher's products of all the pairs of
    # prime index in one pass
    subs = [s for s in normal_subgroups(g) if s.order < g.order]
    clifford._pairs(subs)
    for s in subs:
        clifford._pair(s).induction
    got = clifford._products([s for s in subs if is_prime(s.index)])
    assert not any(isinstance(x, Exception) for x in got)

assert run_suite("all", cat=Catalog(), max_order=24).passed
cat = Catalog()
for name in ("Q8xS3xC4", "S3xS3xS3", "C4xC4xC3"):
    pairs_and_products(cat.group(name))
pairs_and_products(build_from_permutations(
    105, [tuple((i + 1) % 105 for i in range(105))], name="C105"))
print(json.dumps({"checked": checked, "short": short, "grown": grown}))
"""


def test_every_carried_bound_covers_its_operand():
    run = run_fresh(_AUDIT, timeout=300, args=(json.dumps(_TAKES),))
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert got["short"] == []
    # `_table_bound` and every function that takes a bound were checked on
    # the way
    assert set(got["checked"]) == {name for takes in _TAKES.values()
                                   for name in takes} | {"_table_bound"}
    # and some lift grew a table past its own bound: C35's and the quotient
    # tables' of C105, at conductor 105, where phi is 48
    assert set(got["grown"]) == {48}


def test_the_audit_wraps_every_function_that_takes_a_bound():
    # every function of `src/` with a parameter named bound or bound_*,
    # but `int_dtype`, which turns a bound on results into a dtype
    found = {}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and any(
                    a.arg == "bound" or a.arg.startswith("bound_")
                    for a in node.args.args + node.args.kwonlyargs):
                found.setdefault(path.stem, set()).add(node.name)
    found["cyclotomic"] -= {"int_dtype"}
    assert found == {module: set(takes) for module, takes in _TAKES.items()}



def test_the_table_bound_is_exact_on_the_tables():
    # chi(1) `_fold_bound(e, e)` is reached by some numerator of each table
    # of the catalog to order 24, five larger products and C105, so the
    # bound takes the Gram primes and dtypes that a scan of the table took
    cat = Catalog()
    groups = [g for _, g in cat.groups_up_to(24)] + [cat.group(name) for name in (
        "Q8xS3xC4", "S3xS3xS3", "C4xC4xC3", "S4xS3", "C6xC6xC6")] + [
        build_from_permutations(105, [tuple((i + 1) % 105 for i in range(105))],
                                name="C105")]
    assert len(groups) == 46
    assert [g.name for g in groups
            if _table_bound(_table_nums(g), g.exponent())
            != _absmax(_table_nums(g))] == []
