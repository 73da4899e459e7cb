"""Record the reference outputs in expected.json from the current sources.

    python3 perfbench/record.py

Run this only on the commit whose outputs are the reference (the seed
commit of this benchmark); later commits are checked against what it wrote.
It records:
- sweep:   the number of check records of each suite (all must pass);
- oneshot: the seeded pool of `bound --disc/--q` inputs, and the SHA-256 of
           stdout for every request any seed can draw;
- lattice: pools of permutation generators on 4 to 6 points, drawn with a
           fixed seed and sorted by the order of the group they generate,
           and for them and every product the order and the number of
           normal subgroups.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

POOL_SEED = 20261017
POOL_SIZES = {"a6": 4, "mid": 12, "small": 60, "tiny": 30}
BOUND_POOL = 24


def perm_order(degree: int, gens) -> int:
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[i] for i in g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def run_request(argv) -> tuple[int, bytes]:
    proc = subprocess.run([sys.executable, str(HERE / "request.py")] + argv,
                          capture_output=True, timeout=300)
    return proc.returncode, proc.stdout


def record_sweep() -> dict:
    from charcond import catalog, verify
    rep = verify.run_suite("all", cat=catalog.Catalog())
    if not rep.passed:
        raise SystemExit("sweep: some check records fail on this commit")
    suites = {s: 0 for s in workloads.SWEEP_SUITES}
    for c in rep.checks:
        suites[c.identity.split(":", 1)[0]] += 1
    return {"suites": suites}


def record_oneshot() -> dict:
    rng = random.Random(POOL_SEED)
    bound_pool = []
    while len(bound_pool) < BOUND_POOL:
        p = rng.choice([5, 7, 11, 13, 23, 31])
        argv = ["bound", "--disc", str(p ** rng.randint(1, 4)),
                "--q", str(rng.choice([2, 3, 5, 7])),
                "--theta-degree", str(rng.randint(1, 3)),
                "--norm-ftheta", str(rng.choice([1, 2, 4, 8, 11, 23]))]
        if rng.random() < 0.5:
            argv += ["--T", str(rng.choice([2 ** 15 * 23, 753664, 1000]))]
        if rng.random() < 0.3:
            argv += ["--format", "json"]
        if argv not in bound_pool and run_request(argv)[0] == 0:
            bound_pool.append(argv)
    requests = list(workloads.ONESHOT_FIXED) + bound_pool
    for pool in workloads.ONESHOT_POOLS.values():
        requests += pool
    digests = {}
    for argv in requests:
        code, out = run_request(argv)
        if code != 0:
            raise SystemExit(f"oneshot: {argv} exits {code}")
        digests[workloads.request_key(argv)] = hashlib.sha256(out).hexdigest()
        print(f"  {workloads.request_key(argv)}: {len(out)} bytes", flush=True)
    return {"bound_pool": bound_pool, "digests": digests}


def lattice_entry(entry: dict) -> dict:
    out = workloads.lattice_op(entry)
    entry = dict(entry, order=out[0].order, normal=len(out[3]))
    problem = workloads.lattice_check(entry, out)
    if problem:
        raise SystemExit(f"lattice: {workloads.entry_label(entry)}: {problem}")
    return entry


def record_lattice() -> dict:
    rng = random.Random(POOL_SEED)
    want = {order: name for name, orders in workloads.LATTICE_ORDERS.items()
            for order in orders}
    pool = {name: [] for name in POOL_SIZES}
    seen = set()
    while any(len(pool[k]) < n for k, n in POOL_SIZES.items()):
        degree = rng.choice([4, 5, 6])
        gens = [rng.sample(range(degree), degree)
                for _ in range(rng.choice([1, 2]))]
        key = (degree, tuple(map(tuple, gens)))
        stratum = want.get(perm_order(degree, gens))
        if key in seen or stratum is None or len(pool[stratum]) >= POOL_SIZES[stratum]:
            continue
        seen.add(key)
        pool[stratum].append(lattice_entry({"degree": degree, "gens": gens}))
        print(f"  {stratum}: order {pool[stratum][-1]['order']}", flush=True)
    products = {}
    for name in workloads.LATTICE_PRODUCTS:
        entry = lattice_entry({"product": name})
        products[name] = {"order": entry["order"], "normal": entry["normal"]}
        print(f"  {name}: {products[name]}", flush=True)
    return {"pool": pool, "products": products}


def main() -> int:
    data = {}
    print("sweep", flush=True)
    data["sweep"] = record_sweep()
    print("oneshot", flush=True)
    data["oneshot"] = record_oneshot()
    print("lattice", flush=True)
    data["lattice"] = record_lattice()
    with open(workloads.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
