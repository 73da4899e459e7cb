"""Span tracer for charcond, installed from outside the package.

`Tracer.install()` wraps the public functions of each charcond module and
patches every name that refers to them: the defining module, every module
that bound a copy with `from .x import name`, module-level dispatch dicts such
as `verify._SUITES`, and class attributes (including aliases like
`Cyclotomic.__radd__`).  Each wrapped call counts towards its span name.  It
records a span (name, start, end, parent span, operation id) unless the
innermost open span already has the same name, in which case the call is
counted but not spanned: it is not a layer boundary, and its time is inside
the enclosing span anyway.  Spans stay in memory in flat arrays and are
summarised and written with `dump` when the run ends.  A process that runs
a one-shot request exports its spans and counts to the worker, which
`absorb`s them below the operation's span.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import weakref
from array import array
from time import perf_counter

import numpy as np

# span name -> the functions it wraps, as "module:qualname"
SPANS = {
    "groups.construct": [
        "groups:build_from_table", "groups:build_from_permutations",
        "groups:direct_product", "groups:product_chain",
        "groups:Subgroup.as_group", "groups:quotient"],
    "groups.conjugacy_classes": ["groups:conjugacy_classes"],
    "groups.derived_subgroup": ["groups:derived_subgroup"],
    "groups.normal_subgroups": ["groups:normal_subgroups"],
    "groups.generated_subgroup": ["groups:generated_subgroup"],
    "groups.other": [
        "groups:subgroup", "groups:is_normal", "groups:is_abelian",
        "groups:trivial_subgroup", "groups:full_subgroup",
        "groups:prime_index_normal_subgroups", "groups:parse_group_text",
        "groups:load_group_file"],
    "cyclotomic.op": [
        "cyclotomic:Cyclotomic.__add__", "cyclotomic:Cyclotomic.__mul__",
        "cyclotomic:Cyclotomic.conjugate", "cyclotomic:Cyclotomic.galois",
        "cyclotomic:Cyclotomic.zeta", "cyclotomic:cyclo_sum"],
    "characters.table": ["characters:character_table"],
    "characters.validate": ["characters:CharacterTable.validate"],
    "characters.inner_product": ["characters:inner_product"],
    "characters.induce_restrict": ["characters:induce", "characters:restrict"],
    "characters.other": [
        "characters:decompose", "characters:pointwise_product",
        "characters:conjugate_character", "characters:inflate"],
    "clifford": [
        "clifford:inertia_group", "clifford:inertia_dichotomy",
        "clifford:conjugate_orbit", "clifford:clifford_decomposition",
        "clifford:classify_irreducible", "clifford:find_extensions",
        "clifford:find_extension", "clifford:promote_degree",
        "clifford:construct_large_degree"],
    "conductor": [
        "conductor:artin_conductor", "conductor:conductor_exponent",
        "conductor:root_conductor", "conductor:induced_conductor_norm",
        "conductor:unramified_triviality", "conductor:bound_restricted_case",
        "conductor:bound_induced_case", "conductor:global_constant",
        "conductor:verify_conductor_discriminant", "conductor:factor_integer",
        "conductor:load_context", "conductor:parse_context_dict",
        "conductor:RadicalValue.exact_str", "conductor:RadicalValue.decimal"],
    "catalog.group": ["catalog:Catalog.group", "catalog:Catalog.resolve_group"],
    "catalog.other": [
        "catalog:Catalog.groups_up_to", "catalog:Catalog.context",
        "catalog:Catalog.resolve_context", "catalog:Catalog.bound_dataset",
        "catalog:Catalog.bound_inputs", "catalog:default_catalog"],
    "cli.main": ["cli:main"],
}
SUITES = ("clifford", "gallagher", "dichotomy", "classification", "degrees",
          "conductor", "tables")
for _suite in SUITES:
    SPANS[f"verify.{_suite}"] = [f"verify:suite_{_suite}"]

# the span the benchmark opens around each operation; the rest are layer spans
OP_SPAN = "bench.op"
# a one-shot request: `import charcond` and the interpreter's own start-up
# (spawn to first statement) and exit (end of main to reaped)
IMPORT_SPAN = "import"
INTERPRETER_SPAN = "interpreter"


def _table_digest(g) -> bytes:
    return hashlib.blake2b(g.mul.tobytes(), digest_size=16).digest()


class Tracer:
    """Counts and spans for one process.  Spans live in parallel arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("H")
        self.op = array("i")
        self.outer = array("b")   # 1 when no enclosing span has this name
        self.calls: list[int] = []
        self._depth: list[int] = []   # per name id: open spans of that name
        self._stack: list[int] = []
        self.op_id = -1
        self.counts = {"groups.construct.calls": 0, "characters.table.computed": 0,
                       "verify.checks": 0}
        self._groups = set()
        self._tables = set()
        self._table_groups = weakref.WeakSet()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self._depth.append(0)
        return self._ids[name]

    # -- recording ------------------------------------------------------------

    def open(self, name: str) -> int:
        """Open a span and return its index; close it with `close`."""
        return self._open_id(self._id(name))

    def _open_id(self, nid: int) -> int:
        stack = self._stack
        idx = len(self.start)
        self.parent.append(stack[-1] if stack else -1)
        self.name.append(nid)
        self.op.append(self.op_id)
        self.outer.append(self._depth[nid] == 0)
        self.end.append(0.0)
        self._depth[nid] += 1
        stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int, end: float | None = None) -> None:
        self.end[idx] = perf_counter() if end is None else end
        self._stack.pop()
        self._depth[self.name[idx]] -= 1

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span, measured by the caller, below the open one."""
        idx = self.open(name)
        self.start[idx] = start
        self.close(idx, end)

    def wrap(self, fn, name: str):
        nid = self._id(name)
        calls, stack, names = self.calls, self._stack, self.name
        open_id, close = self._open_id, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[nid] += 1
            if stack and names[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = open_id(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
        return traced

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in SPANS wherever charcond refers to it."""
        mods = {"charcond": importlib.import_module("charcond")}
        for name in ("groups", "cyclotomic", "characters", "clifford",
                     "conductor", "catalog", "verify", "cli"):
            mods[f"charcond.{name}"] = importlib.import_module(f"charcond.{name}")
        for span, targets in SPANS.items():
            for target in targets:
                modname, qual = target.split(":")
                owner = mods[f"charcond.{modname}"]
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    self._patch_method(getattr(owner, cls_name), attr, span)
                else:
                    fn = getattr(owner, qual)
                    _replace_everywhere(mods, fn, self.wrap(fn, span))
        groups = mods["charcond.groups"]
        verify = mods["charcond.verify"]
        characters = mods["charcond.characters"]
        self._hook_init(groups.FiniteGroup)
        self._hook_report(verify.VerificationReport)
        table_fn = characters.character_table
        wrapped = self._count_tables(table_fn)
        _replace_everywhere(mods, table_fn, wrapped)

    def _patch_method(self, cls, attr: str, span: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, span))
            aliases = [attr]
        else:
            new = self.wrap(raw, span)
            aliases = [k for k, v in cls.__dict__.items() if v is raw]
        for name in aliases:
            setattr(cls, name, new)

    def _hook_init(self, cls) -> None:
        init = cls.__init__
        tr = self

        @functools.wraps(init)
        def counted(obj, mul, *args, **kwargs):
            init(obj, mul, *args, **kwargs)
            tr.counts["groups.construct.calls"] += 1
            tr._groups.add(_table_digest(obj))
        cls.__init__ = counted

    def _hook_report(self, cls) -> None:
        add = cls.add
        tr = self

        @functools.wraps(add)
        def counted(rep, *args, **kwargs):
            add(rep, *args, **kwargs)
            tr.counts["verify.checks"] += 1
            tr.op_id += 1
        cls.add = counted

    def _count_tables(self, fn):
        tr = self

        @functools.wraps(fn)
        def counted(g, *args, **kwargs):
            if g not in tr._table_groups:
                tr._table_groups.add(g)
                tr.counts["characters.table.computed"] += 1
                tr._tables.add(_table_digest(g))
            return fn(g, *args, **kwargs)
        return counted

    # -- results ----------------------------------------------------------------

    def export(self) -> dict:
        """Everything recorded, as JSON-ready data for `absorb`."""
        return {
            "names": self.names, "start": self.start.tolist(),
            "end": self.end.tolist(), "parent": self.parent.tolist(),
            "name": self.name.tolist(), "outer": self.outer.tolist(),
            "calls": self.calls, "counts": self.counts,
            "groups": sorted(d.hex() for d in self._groups),
            "tables": sorted(d.hex() for d in self._tables),
        }

    def absorb(self, data: dict, parent: int, op: int) -> None:
        """Add another process's `export` below span `parent`, as operation `op`."""
        base = len(self.start)
        ids = [self._id(nm) for nm in data["names"]]
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        self.parent.extend(parent if p < 0 else base + p for p in data["parent"])
        self.name.extend(ids[i] for i in data["name"])
        self.op.extend([op] * len(data["start"]))
        self.outer.extend(data["outer"])
        for i, n in enumerate(data["calls"]):
            self.calls[ids[i]] += n
        for key, n in data["counts"].items():
            self.counts[key] += n
        self._groups.update(bytes.fromhex(d) for d in data["groups"])
        self._tables.update(bytes.fromhex(d) for d in data["tables"])

    def summary(self) -> dict:
        """Per-name call counts, outermost inclusive time and self time."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        dur = np.frombuffer(self.end, dtype=np.float64, count=n) - start
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        name = np.frombuffer(self.name, dtype=np.uint16, count=n)
        outer = np.frombuffer(self.outer, dtype=np.int8, count=n).astype(bool)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        op = self._id(OP_SPAN)
        k = len(self.names)
        incl = np.bincount(name[outer], weights=dur[outer], minlength=k)
        selft = np.bincount(name, weights=dur - child, minlength=k)
        # layer spans directly below an operation span
        top = has_parent & (name[np.maximum(parent, 0)] == op)
        counts = dict(self.counts)
        counts["groups.construct.distinct"] = len(self._groups)
        counts["characters.table.distinct"] = len(self._tables)
        return {
            "calls": dict(zip(self.names, self.calls)),
            "incl_s": {nm: float(incl[i]) for i, nm in enumerate(self.names)},
            "self_s": {nm: float(selft[i]) for i, nm in enumerate(self.names)},
            "counts": counts,
            "covered_s": float(dur[top].sum()),
            "op_s": float(dur[name == op].sum()),
            "spans": n,
        }

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "name": self.names[self.name[i]], "start": self.start[i],
                    "end": self.end[i], "parent": self.parent[i],
                    "op": self.op[i]}) + "\n")


def _replace_everywhere(mods: dict, old, new) -> None:
    for mod in mods.values():
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)
            elif isinstance(val, dict):
                for dkey, dval in list(val.items()):
                    if dval is old:
                        val[dkey] = new


def layer_metrics(s: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from a summary."""
    calls, incl, selft, counts = s["calls"], s["incl_s"], s["self_s"], s["counts"]
    c = lambda n: calls.get(n, 0)      # noqa: E731
    t = lambda n: incl.get(n, 0.0)     # noqa: E731
    computed = counts["characters.table.computed"]
    out = {
        "characters.table.calls": (c("characters.table"), "count"),
        "characters.table.computed": (computed, "count"),
        "characters.table.distinct": (counts["characters.table.distinct"], "count"),
        "characters.table.useful_ratio": (
            counts["characters.table.distinct"] / computed if computed else 0.0,
            "ratio"),
        "characters.table.s": (t("characters.table"), "s"),
        "characters.validate.calls": (c("characters.validate"), "count"),
        "characters.validate.s": (t("characters.validate"), "s"),
        "cyclotomic.ops": (c("cyclotomic.op"), "count"),
        "cyclotomic.s": (t("cyclotomic.op"), "s"),
        "characters.inner_product.calls": (c("characters.inner_product"), "count"),
        "characters.inner_product.s": (t("characters.inner_product"), "s"),
        "characters.induce_restrict.calls": (c("characters.induce_restrict"), "count"),
        "characters.induce_restrict.s": (t("characters.induce_restrict"), "s"),
        "clifford.calls": (c("clifford"), "count"),
        "clifford.s": (t("clifford"), "s"),
        "groups.construct.calls": (counts["groups.construct.calls"], "count"),
        "groups.construct.distinct": (counts["groups.construct.distinct"], "count"),
        "groups.construct.s": (t("groups.construct"), "s"),
        "groups.normal_subgroups.calls": (c("groups.normal_subgroups"), "count"),
        "groups.normal_subgroups.s": (t("groups.normal_subgroups"), "s"),
        "groups.derived_subgroup.s": (t("groups.derived_subgroup"), "s"),
        "groups.conjugacy_classes.s": (t("groups.conjugacy_classes"), "s"),
        "groups.generated_subgroup.calls": (c("groups.generated_subgroup"), "count"),
        "catalog.group.calls": (c("catalog.group"), "count"),
        "catalog.group.s": (t("catalog.group"), "s"),
        "conductor.calls": (c("conductor"), "count"),
        "conductor.s": (t("conductor"), "s"),
        "cli.main.s": (selft.get("cli.main", 0.0), "s"),
        "import.s": (t(IMPORT_SPAN), "s"),
        "interpreter.s": (t(INTERPRETER_SPAN), "s"),
    }
    for suite in SUITES:
        out[f"verify.{suite}.s"] = (t(f"verify.{suite}"), "s")
    out["verify.checks"] = (counts["verify.checks"], "count")
    op_s = s["op_s"]
    out["trace.coverage_frac"] = (s["covered_s"] / op_s if op_s else 0.0, "ratio")
    return out


# metrics that must repeat exactly between two traced runs with one seed
EXACT = ("characters.table.calls", "characters.table.computed",
         "characters.table.distinct", "characters.validate.calls",
         "cyclotomic.ops", "characters.inner_product.calls",
         "characters.induce_restrict.calls", "clifford.calls",
         "groups.construct.calls", "groups.construct.distinct",
         "groups.normal_subgroups.calls", "groups.generated_subgroup.calls",
         "catalog.group.calls", "conductor.calls", "verify.checks")
