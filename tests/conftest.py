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
