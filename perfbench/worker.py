"""One benchmark process: set up a workload, run it, print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N
        (--seconds S | --rounds K) [--trace] [--setup-only]

run.py starts every worker in a fresh interpreter.  The worker imports
charcond from `src/` next to this directory, builds the workload's inputs
from the seed, and notes the moment it is ready (the end of set-up).  It then
runs exactly K rounds, or whole rounds for S seconds: at least one, and no
further round once the next is not expected to end within S.  The
JSON line holds the ready time, each round's operation latencies and time
(scaled to nominal machine speed, see speed.py; raw seconds when traced),
the round times in raw seconds, the median machine speed, failures, peak
memory and, when traced, the span summary; the spans themselves go to
perfbench/out/spans-<workload>-seed<N>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    if not (SRC / "charcond" / "__init__.py").is_file():
        print(f"worker: no charcond sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import charcond
    import workloads
    from speed import SpeedClock
    if Path(charcond.__file__).resolve().parent != (SRC / "charcond").resolve():
        print(f"worker: imported charcond from {charcond.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, workloads.load_expected())
    out: dict = {"ready": perf_counter()}
    if args.setup_only:
        # the machine's speed, probed in this interpreter once it is ready
        clock = SpeedClock()
        clock.probe()
        out["mark"] = clock.marks[0]
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        workloads.OUT.mkdir(exist_ok=True)
    # probes would sit inside the operation spans of a traced run
    clock = SpeedClock(enabled=not args.trace, alpha=wl.speed_alpha)
    # whole rounds only, and no round that is not expected to end in time
    rounds = []
    t0 = perf_counter()
    while True:
        t_round = perf_counter()
        rounds.append(wl.run_round(clock, tracer))
        now = perf_counter()
        if args.rounds and len(rounds) >= args.rounds:
            break
        if not args.rounds and now + (now - t_round) - t0 > args.seconds:
            break

    who = (resource.RUSAGE_CHILDREN if args.workload == "oneshot"
           else resource.RUSAGE_SELF)
    out.update({
        "latencies": [r.latencies for r in rounds],
        "round_wall": [r.wall_s for r in rounds],
        "raw_round_wall": [r.raw_wall_s for r in rounds],
        "speed": clock.speed(),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "errors": [e for r in rounds for e in r.errors][:10],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    })
    if tracer:
        out["summary"] = tracer.summary()
        spans = workloads.OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans)
        out["spans"] = str(spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
