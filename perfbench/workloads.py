"""The three workloads: inputs from a seed, one operation, and its check.

Each workload is a closed loop with one caller.  A round is one full pass
over the workload's inputs; the worker repeats whole rounds for the
requested seconds.  Inputs come from the seed, drawn from the pools and
request lists in `expected.json`, which also holds the outputs the reference
commit produced for every one of them (see record.py).

- sweep:   `run_suite("all")` over the builtin catalog at order cap 24 with
           one shared Catalog; an operation is one check record.
- oneshot: charcond CLI requests, each in a fresh interpreter.
- lattice: group construction, conjugacy classes, derived subgroup, normal
           subgroups and prime-index quotients, with no characters.
"""

from __future__ import annotations

import hashlib
import json
import random
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from speed import FRESH_INTERPRETER_ALPHA, SpeedClock
from tracing import OP_SPAN, INTERPRETER_SPAN

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
OUT = HERE / "out"      # traces; ignored by git

# Longest an operation may take before it counts as failed.  The slowest
# operation in any mix takes about 10 s (a `table` request on C4xC4xC3 or
# Q8xS3xC4); the timeout only guards against a hang.
OP_TIMEOUT_S = 60.0

# Raw seconds of work between two speed probes, at most, in workloads whose
# operations are shorter than that (see speed.py).
PROBE_EVERY_S = 0.1

SWEEP_SUITES = ("clifford", "gallagher", "dichotomy", "classification",
                "degrees", "conductor", "tables")

# -- oneshot requests ---------------------------------------------------------
# Every round runs all of these once, in seeded order.  Slots marked with a
# pool name take a seeded member of that pool; pool members cost about the
# same, so the seed moves the order and the inputs but not the total work.
# Left out on purpose: `table --group C6xC6xC6` (over two minutes today),
# and more high-exponent tables than the round needs: one 7-9 s table is
# already a third of a round.
ONESHOT_FIXED = [
    ["table", "--group", g] for g in
    ("C13", "C19", "C23", "S3xS3xS3", "S4xS3",
     "S3", "S4", "D12", "Q8", "D8", "C6", "C12", "D2")
] + [
    ["table", "--group", "C24", "--format", "json"],
    ["table", "--group", "C13", "--format", "json"],
    ["table", "--group", "S4", "--format", "json"],
    ["conduct", "--context", "quintic11", "--all"],
    ["conduct", "--context", "gauss"],
    ["conduct", "--context", "quad-m23"],
    ["conduct", "--context", "quintic11", "--format", "json"],
    ["bound", "--dataset", "martinet-constants"],
    ["bound", "--dataset", "martinet-constants", "--format", "json"],
]
ONESHOT_SLOTS = ["heavy"] + ["classify"] * 4 + ["conduct_char"] + ["bound"] * 6
ONESHOT_POOLS = {
    # high exponent, about 7 s each
    "heavy": [["table", "--group", g] for g in ("C4xC4xC3", "Q8xS3xC4")],
    # derived subgroup of prime index, about 0.3 s each
    "classify": [["classify", "--group", g, "--subgroup", "derived"]
                 for g in ("S3", "S4", "D3", "D5", "D7", "C2", "C3", "C5", "C7")],
    "conduct_char": [["conduct", "--context", "quintic11", "--char", str(i)]
                     for i in range(5)],
    # "bound" is generated by record.py: seeded --disc/--q inputs
}

# -- lattice inputs -----------------------------------------------------------
# Per round: this many groups from each pool of seeded permutation
# generators (pool name: group orders it holds), plus every product below.
# S6 is left out: one S6 takes 10-16 s, more than a whole round, and its
# time swings with the load of the machine more than anything else; A6
# (order 360) runs the same construction and lattice code.
LATTICE_STRATA = {"a6": 1, "mid": 4, "small": 30, "tiny": 10}
LATTICE_ORDERS = {"a6": (360,), "mid": (60,),
                  "small": (24,), "tiny": (2, 3, 4, 5, 6, 8, 10, 12)}
# Catalog products of order 36 to 144.  The groups above 0.05 s are all
# fixed (A6 and these), so the tail percentile falls on the same group
# whatever the seed.  Left out: S3xS3xS3 (order 216, 7-9 s), D6xD6 (10 s),
# S4xC2xC3 (3 s), Q8xC3xC3 (2 s) and Q8xS3xC4 (46 s): one of them would be
# most of a round.
LATTICE_PRODUCTS = ("C6xC6", "S3xC6", "D6xC3", "S3xS3", "S3xD4", "D4xC2xC3",
                    "C4xC4xC3", "S4xC3", "D12xC3", "S3xS3xC2", "S4xS3")


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"operation exceeded {OP_TIMEOUT_S:g} s")


@contextmanager
def op_deadline():
    """Raise OpTimeout in this thread if the block runs past OP_TIMEOUT_S."""
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def request_key(argv) -> str:
    return " ".join(argv)


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


class RoundResult:
    """What one round did: operation latencies, timed phase and failures.

    Latencies and wall_s are scaled to nominal machine speed by the round's
    SpeedClock; raw_wall_s is the same phase in plain seconds.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0
        self.raw_wall_s = 0.0
        self.errors: list[str] = []

    def timed(self, clock: SpeedClock, t0: float, t1: float) -> None:
        """Count one operation that ran from t0 to t1."""
        dt = clock.scaled(t0, t1)
        self.latencies.append(dt)
        self.wall_s += dt
        self.raw_wall_s += clock.scaled(t0, t1, alpha=0.0)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)


# -- sweep -----------------------------------------------------------------------

class Sweep:
    name = "sweep"
    speed_alpha = 1.0

    def __init__(self, seed: int, expected: dict) -> None:
        # The suites fix their own inputs (the catalog and the suites' own
        # random seed); the workload seed changes nothing.
        self.want = expected["sweep"]["suites"]

    def run_round(self, clock: SpeedClock, tracer=None) -> RoundResult:
        from charcond import catalog, verify
        res = RoundResult()
        stamps: list[float] = []
        add = verify.VerificationReport.add

        def stamped(rep, *args, **kwargs):
            add(rep, *args, **kwargs)
            stamps.append(perf_counter())
            if clock.since_probe() > PROBE_EVERY_S:
                clock.probe()
            signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)

        verify.VerificationReport.add = stamped
        rep = None
        clock.probe()
        span = tracer.open(OP_SPAN) if tracer else None
        t0 = perf_counter()
        try:
            with op_deadline():
                rep = verify.run_suite("all", cat=catalog.Catalog(),
                                       max_order=verify.DEFAULT_MAX_ORDER)
        except Exception as exc:  # a failed pass is reported, not raised
            res.errors.append(f"sweep aborted: {type(exc).__name__}: {exc}")
        finally:
            end = perf_counter()
            if tracer:
                tracer.close(span)
            verify.VerificationReport.add = add
        clock.probe()
        res.wall_s = clock.scaled(t0, end)
        res.raw_wall_s = clock.scaled(t0, end, alpha=0.0)
        want_total = sum(self.want.values())
        res.attempted = want_total
        got = {s: 0 for s in SWEEP_SUITES}
        spent = {s: 0.0 for s in SWEEP_SUITES}
        bad = 0
        prev = t0
        for check, t in zip(rep.checks if rep else (), stamps):
            suite = check.identity.split(":", 1)[0]
            got[suite] = got.get(suite, 0) + 1
            spent[suite] = spent.get(suite, 0.0) + clock.scaled(prev, t)
            prev = t
            bad += not check.passed
        # A record's latency is its suite's time per record.  The records of
        # a suite share tables, so the gap before each one charges the shared
        # work to whichever record needs a table first.
        for suite, n in got.items():
            res.latencies += [spent[suite] / n] * n
        missing = sum(abs(self.want.get(s, 0) - got.get(s, 0))
                      for s in set(self.want) | set(got))
        res.failed = min(want_total, bad + missing)
        if missing:
            res.errors.append(f"record counts {got} differ from {self.want}")
        if bad:
            res.errors.append(f"{bad} check records failed")
        return res


# -- oneshot ---------------------------------------------------------------------

class Oneshot:
    name = "oneshot"
    speed_alpha = FRESH_INTERPRETER_ALPHA

    def __init__(self, seed: int, expected: dict) -> None:
        rng = random.Random(seed)
        exp = expected["oneshot"]
        self.digests = exp["digests"]
        pools = dict(ONESHOT_POOLS)
        pools["bound"] = exp["bound_pool"]
        picks = {name: rng.sample(pool, ONESHOT_SLOTS.count(name))
                 for name, pool in pools.items()}
        self.deck = list(ONESHOT_FIXED)
        for name in ONESHOT_SLOTS:
            self.deck.append(picks[name].pop())
        rng.shuffle(self.deck)
        self.script = str(HERE / "request.py")

    def run_round(self, clock: SpeedClock, tracer=None) -> RoundResult:
        res = RoundResult()
        trace_file = OUT / "request-trace.json"
        # each request probes the machine's speed itself, before and after
        # its work; probes taken here, in a process that had just woken from
        # waiting, misread the speed in trials
        probe_file = OUT / "request-probe.json"
        if clock.enabled:
            OUT.mkdir(exist_ok=True)
        for i, argv in enumerate(self.deck):
            cmd = [sys.executable, self.script]
            if tracer:
                tracer.op_id = i
                cmd += ["--trace-file", str(trace_file)]
                trace_file.unlink(missing_ok=True)
            elif clock.enabled:
                cmd += ["--probe-file", str(probe_file)]
                probe_file.unlink(missing_ok=True)
            cmd += argv
            span = tracer.open(OP_SPAN) if tracer else None
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE)
            try:
                out, err = proc.communicate(timeout=OP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                out = None
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            t_done = perf_counter()
            if tracer:
                if trace_file.exists():
                    with open(trace_file, encoding="utf-8") as fh:
                        child = json.load(fh)
                    tracer.record(INTERPRETER_SPAN, t0, child["t_start"])
                    tracer.absorb(child["trace"], span, i)
                    tracer.record(INTERPRETER_SPAN, child["t_end"], t_done)
                tracer.close(span, t_done)
            if clock.enabled and probe_file.exists():
                with open(probe_file, encoding="utf-8") as fh:
                    clock.marks += [tuple(m) for m in json.load(fh)["marks"]]
            res.attempted += 1
            res.timed(clock, t0, t_done)
            key = request_key(argv)
            if out is None:
                res.fail(f"timeout: {key}")
            elif proc.returncode != 0:
                res.fail(f"exit {proc.returncode}: {key}: {err[-200:]!r}")
            elif hashlib.sha256(out).hexdigest() != self.digests.get(key):
                res.fail(f"stdout differs from the recorded output: {key}")
        return res


# -- lattice ---------------------------------------------------------------------

def lattice_op(entry: dict):
    """Build the group and its normal-subgroup lattice; return what to check."""
    from charcond import catalog, groups
    if "product" in entry:
        g = catalog.Catalog().group(entry["product"])
    else:
        g = groups.build_from_permutations(entry["degree"], entry["gens"])
    part = groups.conjugacy_classes(g)
    derived = groups.derived_subgroup(g)
    normals = groups.normal_subgroups(g)
    quotients = [(s, groups.quotient(g, s)[0]) for s in normals
                 if is_prime(s.index)]
    return g, part, derived, normals, quotients


def _is_normal_set(g, elements) -> bool:
    emb = np.asarray(elements, dtype=np.int64)
    member = np.zeros(g.order, dtype=bool)
    member[emb] = True
    conj = g.mul[g.mul[:, emb], g.inv[:, None]]
    return bool(member[conj].all())


def lattice_check(entry: dict, out) -> str | None:
    """Independent checks of one lattice result; None when all hold."""
    g, part, derived, normals, quotients = out
    n = g.order
    if n != entry["order"]:
        return f"order {n} != {entry['order']}"
    sizes = [len(c) for c in part.classes]
    if sum(sizes) != n or any(n % s for s in sizes):
        return "class sizes do not sum to the order or do not divide it"
    if len(normals) != entry["normal"]:
        return f"{len(normals)} normal subgroups, expected {entry['normal']}"
    for s in list(normals) + [derived]:
        if n % s.order or not _is_normal_set(g, s.elements):
            return f"subgroup of order {s.order} is not normal"
    for s, q in quotients:
        if q.order != s.index:
            return f"quotient order {q.order} != index {s.index}"
    return None


class Lattice:
    name = "lattice"
    speed_alpha = 1.0

    def __init__(self, seed: int, expected: dict) -> None:
        rng = random.Random(seed)
        exp = expected["lattice"]
        deck = []
        for stratum, count in LATTICE_STRATA.items():
            deck += rng.sample(exp["pool"][stratum], count)
        for name in LATTICE_PRODUCTS:
            deck.append(dict(exp["products"][name], product=name))
        rng.shuffle(deck)
        self.deck = deck
        # first calls pay one-time costs (lazy imports inside numpy); pay
        # them here, so that they do not land on whichever input comes first
        lattice_op({"degree": 4, "gens": [[1, 0, 2, 3], [1, 2, 3, 0]]})
        lattice_op({"product": "S3xC2"})

    def run_round(self, clock: SpeedClock, tracer=None) -> RoundResult:
        res = RoundResult()
        for i, entry in enumerate(self.deck):
            if clock.since_probe() > PROBE_EVERY_S:
                clock.probe()
            if tracer:
                tracer.op_id = i
            span = tracer.open(OP_SPAN) if tracer else None
            t0 = perf_counter()
            try:
                with op_deadline():
                    out = lattice_op(entry)
            except Exception as exc:  # a failed operation is counted
                out = None
                err = f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            if tracer:
                tracer.close(span)
            res.attempted += 1
            res.timed(clock, t0, t1)
            if out is None:
                res.fail(f"{entry_label(entry)}: {err}")
                continue
            problem = lattice_check(entry, out)
            if problem:
                res.fail(f"{entry_label(entry)}: {problem}")
        clock.probe()
        return res


def entry_label(entry: dict) -> str:
    if "product" in entry:
        return entry["product"]
    return f"perm{entry['degree']} order {entry['order']}"


WORKLOADS = {"sweep": Sweep, "oneshot": Oneshot, "lattice": Lattice}
