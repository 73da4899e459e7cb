"""Milliseconds per verification suite, in process.

Runs the suites in the order of `verify --suite all`, at the default order
cap, on one fresh `Catalog` per round: one warm round first, then 11 timed
rounds.  Prints each suite's median, and its range, in milliseconds, then a
`round` line: the median and range of the named suites' sum per round.  A
sibling of `table_cost.py`; run it once per measurement:

    python tools/suite_cost.py              # every suite
    python tools/suite_cost.py conductor    # the named suites only
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from charcond import SUITE_NAMES  # noqa: E402
from charcond.catalog import Catalog  # noqa: E402
from charcond.verify import run_suite  # noqa: E402

ROUNDS = 11


def one_round(names: list[str]) -> dict[str, float]:
    """Milliseconds of each suite of one round on a fresh catalog.  Every
    suite of `verify --suite all` runs, in its order, so that a named suite
    finds the tables the suites before it built, as it does in the sweep."""
    cat = Catalog()
    out = {}
    for name in SUITE_NAMES[:-1]:
        start = perf_counter()
        run_suite(name, cat)
        if name in names:
            out[name] = (perf_counter() - start) * 1e3
    return out


def main(argv: list[str]) -> int:
    names = argv[1:] or list(SUITE_NAMES[:-1])
    unknown = sorted(set(names) - set(SUITE_NAMES[:-1]))
    if unknown:
        print(f"unknown suites {unknown}; choose from "
              f"{', '.join(SUITE_NAMES[:-1])}", file=sys.stderr)
        return 2
    one_round(names)
    rounds = [one_round(names) for _ in range(ROUNDS)]
    for name in names + ["round"]:
        ms = [sum(r.values()) if name == "round" else r[name] for r in rounds]
        print(f"{name}: median {statistics.median(ms):.1f} ms "
              f"({min(ms):.1f}-{max(ms):.1f}) over {ROUNDS} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
