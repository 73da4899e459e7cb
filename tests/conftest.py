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
import json
from collections import Counter
from charcond import characters, cyclotomic
from charcond.catalog import Catalog
from charcond.verify import run_suite

runs, checks = Counter(), []
dixon, validate = characters._dixon_rows, characters.CharacterTable.validate

def counted_dixon(g):
    runs[g.mul.tobytes()] += 1
    return dixon(g)

def counted_validate(table):
    checks.append(table.group.order)
    return validate(table)

characters._dixon_rows = counted_dixon
characters.CharacterTable.validate = counted_validate
rep = run_suite("all", cat=Catalog(), max_order=24)
out = {"passed": rep.passed, "dixon": sorted(runs.values()),
       "validate": len(checks)}
cat = Catalog()
for name in ("Q8xS3xC4", "C4xC4xC3", "S3xS3xS3"):
    characters.character_table(cat.group(name))
out["caches"] = {
    fn: getattr(cyclotomic, fn).cache_info()._asdict()
    for fn in ("_power_array", "_rebase_data", "_correlation_data",
               "_search_steps")}
print(json.dumps(out))
"""


def run_fresh(code: str, timeout: float = 120, args=()):
    """Run Python `code` in a fresh interpreter that imports charcond from
    this checkout; returns the completed process."""
    import os
    import subprocess
    from pathlib import Path
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=timeout,
                          env=env)


@pytest.fixture(scope="session")
def fresh_sweep():
    """Counts from `run_suite("all")` at cap 24 in a fresh interpreter: the
    Dixon runs per table, the `validate()` calls, and then the conductor cache
    statistics after the Q8xS3xC4, C4xC4xC3 and S3xS3xS3 tables as well."""
    import json
    run = run_fresh(_FRESH_SWEEP)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)
