"""Each CLI request loads only the modules its command runs.

Every check starts a fresh interpreter, runs one request through `cli.main`
and reads `sys.modules` afterwards.
"""

import json

import pytest

import charcond
from conftest import run_fresh

_LOADED = """
import json, sys
from charcond.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}), file=sys.stderr)
"""


def loaded(*argv) -> set[str]:
    run = run_fresh(_LOADED, args=argv)
    got = json.loads(run.stderr.strip().splitlines()[-1])
    assert got["code"] == 0, run.stderr
    return set(got["modules"])


def charcond_modules(modules) -> set[str]:
    return {m.split(".", 1)[1] for m in modules if m.startswith("charcond.")}


def test_import_charcond_loads_no_submodule():
    run = run_fresh("import json, sys, charcond\n"
                    "print(json.dumps(sorted(sys.modules)))")
    assert run.returncode == 0, run.stderr
    assert charcond_modules(json.loads(run.stdout)) == set()


@pytest.mark.parametrize("argv", [
    ("bound", "--dataset", "martinet-constants"),
    ("bound", "--disc", "23", "--q", "5", "--theta-degree", "2",
     "--norm-ftheta", "7", "--T", "3/4", "--format", "json"),
])
def test_bound_loads_no_numpy_and_no_group_layer(argv):
    modules = loaded(*argv)
    assert "numpy" not in modules
    assert not charcond_modules(modules) & {
        "groups", "characters", "cyclotomic", "clifford", "verify"}


def test_table_loads_no_clifford_conductor_verify_or_bounds():
    modules = loaded("table", "--group", "S4xS3")
    assert "characters" in charcond_modules(modules)
    assert not charcond_modules(modules) & {
        "clifford", "conductor", "verify", "bounds"}


@pytest.mark.parametrize("argv", [
    ("table", "--group", "C24", "--format", "json"),
    ("table", "--group", "S3xS3xS3"),
    ("classify", "--group", "S4", "--subgroup", "derived"),
    ("conduct", "--context", "quintic11"),
    ("conduct", "--context", "gauss", "--char", "1"),
])
def test_group_requests_do_not_load_numpy_ma(argv):
    modules = loaded(*argv)
    assert "numpy" in modules
    assert "numpy.ma" not in modules


def test_every_export_is_its_module_attribute():
    import importlib
    assert charcond.__all__ == sorted(set(charcond.__all__))
    for name in charcond.__all__:
        home = charcond._HOME.get(name, "verify")
        module = importlib.import_module(f"charcond.{home}")
        assert getattr(charcond, name) is getattr(module, name), name
    # submodules stay attributes of the package, as when it imported them all
    assert charcond.groups is importlib.import_module("charcond.groups")
    with pytest.raises(AttributeError):
        charcond.no_such_name  # noqa: B018
