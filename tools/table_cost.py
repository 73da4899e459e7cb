"""Seconds and peak memory of one character table, in a fresh interpreter.

Resolves NAME|FILE as the CLI does (a catalog name first, then a group
file), builds the group, then times one `character_table` call and reports
the process's VmHWM (peak resident set size) after it.  The peak includes
the interpreter, numpy and the group itself.  Run it once per measurement,
so that no earlier table is cached:

    python tools/table_cost.py C6xC6xC6
    python tools/table_cost.py path/to/group.txt
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from charcond.catalog import Catalog  # noqa: E402
from charcond.characters import character_table  # noqa: E402


def peak_mb() -> float:
    """This process's VmHWM in MB, from /proc/self/status (Linux)."""
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"VmHWM:\s*(\d+)", status)[1]) / 1024


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/table_cost.py NAME|FILE", file=sys.stderr)
        return 2
    g = Catalog().resolve_group(argv[1])
    start = perf_counter()
    table = character_table(g)
    seconds = perf_counter() - start
    print(f"{argv[1]}: {len(table)} classes, {seconds:.2f} s, "
          f"VmHWM {peak_mb():.0f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
