"""Time and peak memory of character tables, each in a fresh interpreter.

Resolves each NAME|FILE as the CLI does (a catalog name first, then a group
file), builds the group, then times one `character_table` call, in
milliseconds so that tables of a few classes still read, and reports the
process's VmHWM (peak resident set size) after it, one line per name.
The peak includes the interpreter, numpy and the group itself.  With several
names, each is measured in a child interpreter of its own, so that no table
is cached across names:

    python tools/table_cost.py C6xC6xC6
    python tools/table_cost.py C19 C24 Q8xS3xC4 path/to/group.txt
"""

from __future__ import annotations

import re
import subprocess
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
    if len(argv) < 2:
        print("usage: python tools/table_cost.py NAME|FILE ...", file=sys.stderr)
        return 2
    if len(argv) > 2:
        # stdout and stderr pass through, one line per name
        return max(subprocess.run([sys.executable, argv[0], ref]).returncode
                   for ref in argv[1:])
    g = Catalog().resolve_group(argv[1])
    start = perf_counter()
    table = character_table(g)
    ms = (perf_counter() - start) * 1000
    print(f"{argv[1]}: {len(table)} classes, {ms:.2f} ms, "
          f"VmHWM {peak_mb():.0f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
