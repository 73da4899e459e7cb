"""Milliseconds per suite and microseconds per record of `verify --suite all`.

Runs ROUNDS rounds in this process, pinned to one CPU (Linux), each round
the suites of `run_suite("all")` at order cap 24 in their order with one
fresh `Catalog`, as `run_suite` shares it; no table or pair of one round is
reused by the next.  Prints, per suite, the median over the rounds of its
time and of its time per record, and the records it wrote:

    python tools/suite_cost.py          # 30 rounds
    python tools/suite_cost.py 100

The benchmark's `sweep` workload (perfbench/workloads.py) times the same
rounds and charges each record its suite's time per record.  `op_p50_s`,
the median record of a round, is the time per record of the suite that
holds the 360th record in order of time per record, and `op_tail_s`, the
11th-slowest of the 720 records, that of the slowest suite but degrees,
whose 10 records come first.  Both are read off this tool's last column:
while clifford's 351 records sit between the 297 faster records of tables,
dichotomy, classification and conductor and the 72 slower ones of
gallagher and degrees, `op_p50_s` is the clifford suite's time per record,
and while gallagher's exceeds every other suite's but degrees', `op_tail_s`
is the gallagher suite's.  A change to a suite's time per record here
moves those metrics by as much; the benchmark adds its own speed scaling,
which this tool leaves out.  Two runs of 30 rounds on one CPU of a shared
2-vCPU Xeon read, in microseconds per record: tables 16-20, dichotomy
18-22, classification 117-161, conductor 288-381, clifford 342-437,
gallagher 438-574 and degrees 1,721-2,241, so both roles hold.
"""

from __future__ import annotations

import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from charcond import DEFAULT_MAX_ORDER, SUITE_NAMES  # noqa: E402
from charcond.catalog import Catalog  # noqa: E402
from charcond.verify import run_suite  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) > 2 or (len(argv) == 2 and not argv[1].isdigit()):
        print("usage: python tools/suite_cost.py [ROUNDS]", file=sys.stderr)
        return 2
    rounds = int(argv[1]) if len(argv) == 2 else 30
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    suites = SUITE_NAMES[:-1]
    spent = {name: [] for name in suites}
    records = {}
    for _ in range(rounds):
        cat = Catalog()
        for name in suites:
            start = perf_counter()
            rep = run_suite(name, cat=cat, max_order=DEFAULT_MAX_ORDER)
            spent[name].append(perf_counter() - start)
            records[name] = len(rep.checks)
    print(f"{'suite':<16}{'ms':>10}{'records':>9}{'us/record':>11}")
    for name in suites:
        ms = statistics.median(spent[name]) * 1000
        per = statistics.median(t / records[name] for t in spent[name]) * 1e6
        print(f"{name:<16}{ms:>10.2f}{records[name]:>9}{per:>11.1f}")
    total = statistics.median(map(sum, zip(*spent.values()))) * 1000
    print(f"{'all':<16}{total:>10.2f}{sum(records.values()):>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
