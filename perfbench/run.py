"""charcond benchmark: sweep, oneshot and lattice workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --repeat R
    python3 perfbench/run.py --workload all --seed N --check-counts

Run it from the root of a charcond checkout; it imports charcond from `src/`.
Every workload runs in a fresh interpreter (perfbench/worker.py).

--trace 0 reports the end-to-end metrics: set-up is measured in several
fresh interpreters and reported as the median, then one worker runs whole
rounds of the workload for at least S seconds.  Every time it reports is
scaled to nominal machine speed by a probe timed between operations (see
speed.py), and the whole run is pinned to one CPU.  --trace 1 reports the
per-layer metrics: one untraced round, then the same round traced, and the
tracing overhead between them; the traced round's spans are written to
perfbench/out/spans-<workload>-seed<N>.jsonl.  Either way the last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`, and the exit code is nonzero if any operation failed its check.

--workload all runs the workloads of BENCHMARK.json (sweep, oneshot)
interleaved, R times with seeds N, N+1, ..., and prints the median and
quartiles of every metric.
--check-counts runs each workload traced twice with one seed and checks that
the exact work counts agree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import FRESH_INTERPRETER_ALPHA, SpeedClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("sweep", "oneshot", "lattice")
# the workloads BENCHMARK.json lists, and that `--workload all` runs; lattice
# is left out of them because its figures swing by 30-60% from run to run
# with the load of a shared machine (see README.md)
BENCHMARK_WORKLOADS = ("sweep", "oneshot")
SETUP_PROBES = 8          # extra set-up-only interpreters per untraced run
RUN_LIMIT_S = 170.0       # a run that is not done by then is killed and fails

END_TO_END = {            # name -> unit
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
    "op_tail_s": "s", "peak_rss_mb": "MB",
}


class RunFailed(Exception):
    pass


def _worker(args: list[str], deadline: float) -> tuple[dict, float]:
    """Start a worker; return its JSON line and the moment it started."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER)] + args,
                            cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"worker {' '.join(args)} did not finish in time")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RunFailed(f"worker {' '.join(args)} exited {proc.returncode}: "
                        f"{err.strip()[-500:]}")
    return json.loads(out.strip().splitlines()[-1]), t0


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return statistics.median(xs), 50.0
    return xs[n - 11], 100.0 * (n - 10) / n


def environment() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        npv = numpy.__version__
    except ImportError:
        npv = "missing"
    return (f"python {platform.python_version()}, numpy {npv}, "
            f"nproc {os.cpu_count()}, cpu {cpu}")


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    deadline = perf_counter() + RUN_LIMIT_S
    base = ["--workload", name, "--seed", str(seed)]
    # each set-up-only interpreter probes the machine's speed once it is ready
    clock = SpeedClock(alpha=FRESH_INTERPRETER_ALPHA)
    setups = []
    for _ in range(SETUP_PROBES):
        probe, t0 = _worker(base + ["--setup-only"], deadline)
        setups.append((t0, probe["ready"]))
        clock.marks.append(tuple(probe["mark"]))
    res, t0 = _worker(base + ["--seconds", str(seconds)], deadline)
    setups.append((t0, res["ready"]))
    setups = [clock.scaled(t0, ready) for t0, ready in setups]
    # latency metrics per round, then the median over the run's rounds, so
    # that the tail percentile does not depend on how many rounds fit
    rounds = res["latencies"]
    tails = [tail(lat) for lat in rounds]
    ops = sum(len(lat) for lat in rounds)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(res["round_wall"]),
        "ops_per_s": ops / sum(res["round_wall"]),
        "op_p50_s": statistics.median(statistics.median(lat) for lat in rounds),
        "op_tail_s": statistics.median(t for t, _ in tails),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    per_round = f"median of {len(rounds)} round(s)"
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters; machine "
                   f"speed {clock.speed():.3f} of nominal",
        "wall_s": f"{per_round}; raw {statistics.median(res['raw_round_wall']):.3f} s "
                  f"at speed {res['speed']:.3f} of nominal",
        "ops_per_s": f"{ops} operations",
        "op_p50_s": per_round,
        "op_tail_s": f"p{tails[0][1]:.1f} of {len(rounds[0])} operations, "
                     f"{per_round}",
    }
    return {"metrics": {k: (v, END_TO_END[k]) for k, v in metrics.items()},
            "notes": notes, "attempted": res["attempted"],
            "failed": res["failed"], "errors": res["errors"]}


def run_traced(name: str, seed: int) -> dict:
    import tracing
    deadline = perf_counter() + RUN_LIMIT_S
    base = ["--workload", name, "--seed", str(seed), "--rounds", "1"]
    plain, _ = _worker(base, deadline)
    traced, _ = _worker(base + ["--trace"], deadline)
    metrics = tracing.layer_metrics(traced["summary"])
    # raw seconds on both sides: a traced round takes no speed probes
    wall, twall = plain["raw_round_wall"][0], traced["raw_round_wall"][0]
    metrics["trace.overhead_frac"] = ((twall - wall) / wall, "ratio")
    notes = {"trace.overhead_frac":
             f"traced round {twall:.3f} s, untraced {wall:.3f} s",
             "trace.coverage_frac":
             f"layer spans over traced wall_s; {traced['summary']['spans']} "
             f"spans in {Path(traced['spans']).relative_to(ROOT)}"}
    return {"metrics": metrics, "notes": notes,
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "errors": plain["errors"] + traced["errors"]}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    try:
        if trace:
            return run_traced(name, seed)
        return run_untraced(name, seed, seconds)
    except RunFailed as exc:
        return {"metrics": {}, "notes": {}, "attempted": 1, "failed": 1,
                "errors": [str(exc)]}


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(name: str, seed: int, res: dict) -> None:
    print(f"workload {name}, seed {seed}")
    for metric, (value, unit) in res["metrics"].items():
        note = res["notes"].get(metric, "")
        print(f"  {metric:34s} {_fmt(value):>14s} {unit:6s} {note}")
    frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"  {'failed_frac':34s} {_fmt(frac):>14s} {'ratio':6s} "
          f"{res['failed']} of {res['attempted']} operations")
    for err in res["errors"]:
        print(f"  error: {err}")


def result_line(res: dict) -> str:
    return json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in res["metrics"].items()},
    })


def run_all(args) -> int:
    """Interleave the workloads, args.repeat times, and summarise each metric."""
    names = BENCHMARK_WORKLOADS
    runs: dict[str, list[dict]] = {n: [] for n in names}
    failed = 0
    for r in range(args.repeat):
        seed = args.seed + r
        order = names[r % len(names):] + names[:r % len(names)]
        for name in order:
            res = run_one(name, seed, args.seconds, bool(args.trace))
            runs[name].append({"seed": seed, **res})
            report(name, seed, res)
            failed += res["failed"]
            sys.stdout.flush()
    print(f"summary over {args.repeat} run(s) per workload; env: {environment()}")
    summary = {}
    for name in names:
        summary[name] = {}
        units = {k: u for run in runs[name] for k, (_, u) in run["metrics"].items()}
        for metric, unit in units.items():
            vals = [run["metrics"][metric][0] for run in runs[name]
                    if metric in run["metrics"]]
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else vals * 3)
            spread = (q3 - q1) / med if med else 0.0
            summary[name][metric] = {"median": med, "q1": q1, "q3": q3,
                                     "spread": spread, "unit": unit,
                                     "values": vals}
            print(f"  {name:8s} {metric:34s} median {_fmt(med):>12s} {unit:6s} "
                  f"q1 {_fmt(q1):>10s} q3 {_fmt(q3):>10s} "
                  f"spread {spread:.3f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"environment": environment(), "seconds": args.seconds,
                       "trace": args.trace, "summary": summary, "runs": runs},
                      fh, indent=1)
    print(json.dumps({"correct": failed == 0, "failed": failed}))
    return 0 if failed == 0 else 1


def check_counts(args) -> int:
    """Run each workload traced twice with one seed; the counts must agree."""
    import tracing
    names = BENCHMARK_WORKLOADS if args.workload == "all" else (args.workload,)
    bad = 0
    for name in names:
        base = ["--workload", name, "--seed", str(args.seed), "--rounds", "1",
                "--trace"]
        runs = []
        for _ in range(2):
            try:
                res, _ = _worker(base, perf_counter() + RUN_LIMIT_S)
            except RunFailed as exc:
                print(f"  {name}: {exc}")
                bad += 1
                break
            bad += res["failed"]
            runs.append(tracing.layer_metrics(res["summary"]))
        if len(runs) < 2:
            continue
        for metric in tracing.EXACT:
            a, b = runs[0][metric][0], runs[1][metric][0]
            bad += a != b
            print(f"  {name:8s} {metric:34s} {a:>10d} {b:>10d} "
                  f"{'same' if a == b else 'DIFFERENT'}")
    print(json.dumps({"correct": bad == 0, "failed": bad}))
    return 0 if bad == 0 else 1


def pin_to_one_cpu() -> None:
    """Run this process and every one it starts on a single CPU.

    The operations run one at a time anyway; on one CPU the speed probes
    and the work they scale share a core.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="with --workload all: runs per workload")
    ap.add_argument("--out", default=None,
                    help="with --workload all: write every run here as JSON")
    ap.add_argument("--check-counts", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "charcond" / "__init__.py").is_file():
        print(f"run.py: no charcond sources under {ROOT / 'src'}; run it from "
              f"the root of a charcond checkout", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    if args.check_counts:
        return check_counts(args)
    if args.workload == "all":
        return run_all(args)
    print(f"charcond benchmark, {'traced' if args.trace else 'untraced'}; "
          f"env: {environment()}")
    res = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, args.seed, res)
    print(result_line(res))
    return 0 if res["failed"] == 0 and res["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
