"""The benchmark tracer in perfbench/ names functions that charcond still has.

The tracer patches each target by name; a target that no longer resolves
would drop its layer from the benchmark, so every one is looked up here
without installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_span_target_resolves():
    missing = []
    for span, targets in load_tracing().SPANS.items():
        for target in targets:
            modname, qual = target.split(":")
            obj = importlib.import_module(f"charcond.{modname}")
            for attr in qual.split("."):
                obj = getattr(obj, attr, None)
            if not callable(obj):
                missing.append(f"{span}: {target}")
    assert missing == []


def test_every_suite_is_a_module_function_and_its_dispatch_entry():
    # the tracer patches both `verify.suite_<name>` and `verify._SUITES`, so
    # each entry must be that module attribute, under that name
    from charcond import SUITE_NAMES, verify
    assert list(verify._SUITES) == list(SUITE_NAMES[:-1])
    for name in SUITE_NAMES[:-1]:
        assert verify._SUITES[name] is getattr(verify, f"suite_{name}")
