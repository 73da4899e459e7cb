"""Machine speed: a fixed probe timed between operations, and a clock scaled by it.

On a shared host the speed of the CPU swings by a factor of 1.5 to 1.8 for
seconds to minutes at a time, and every charcond operation slows with it.
The benchmark therefore times a fixed piece of work, the probe, between
operations and scales every measured interval by

    (PROBE_NOMINAL_S / probe time around that interval) ** alpha

so a reported time is in seconds at the speed at which the probe takes
PROBE_NOMINAL_S, not in seconds of whatever speed the host gave the run.
The probe is benchmark code: it does the same work on every commit, so a
change to charcond moves the scaled times exactly as it moves the raw ones,
whatever alpha is.  Its work is a mix like charcond's own: Python integers,
Fractions, dicts and tuples, and numpy fancy indexing on small integer
arrays.  Time spent inside the probe is left out of every scaled interval.

alpha is how closely the timed work follows the probe.  Work in a
long-lived interpreter (sweep, lattice) follows it fully: alpha 1.  A fresh
interpreter (oneshot requests, set-up) also spends its time loading
extension modules and faulting in the pages of a new process.  In three
sets of five to eight oneshot runs on the reference machine, wall_s spread
0.035 to 0.07 with alpha 0.5, 0.09 to 0.12 with alpha 1 and 0.06 to 0.16
raw, so fresh interpreters are scaled with FRESH_INTERPRETER_ALPHA.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import numpy as np

# Median probe time on an Intel Xeon 2-vCPU KVM guest (python 3.11.7,
# numpy 2.4.6) when the host was quiet.  Only a unit: it scales every figure
# alike and cancels in any comparison of two commits.
PROBE_NOMINAL_S = 0.0013
PROBE_REPS = 3           # a probe is the fastest of this many timings
FRESH_INTERPRETER_ALPHA = 0.5

_PERM = np.array([(7 * i + 3) % 64 for i in range(64)], dtype=np.int64)
_TABLE = np.add.outer(np.arange(64), np.arange(64)) % 64


def _probe_work() -> int:
    acc = 0
    seen: dict[tuple[int, int], int] = {}
    for i in range(1500):
        acc = (acc * 31 + i * i) % 1000003
        seen[(i & 63, acc & 7)] = acc
    q = Fraction(0)
    for i in range(1, 120):
        q += Fraction(i % 7 - 3, i)
    x = np.arange(64, dtype=np.int64)
    for _ in range(60):
        x = _TABLE[x, _PERM]
    return acc + len(seen) + q.denominator % 97 + int(x[5])


class SpeedClock:
    """Probe marks taken during a run, and intervals scaled by them.

    A disabled clock takes no probes and returns raw intervals; traced runs
    use one, so that probes do not sit inside the operation spans.  `alpha`
    is the share of the probe's swing, in log terms, that the timed work
    follows: an interval is scaled by (PROBE_NOMINAL_S / probe) ** alpha.
    """

    def __init__(self, enabled: bool = True, alpha: float = 1.0) -> None:
        self.enabled = enabled
        self.alpha = alpha
        self.marks: list[tuple[float, float, float]] = []  # start, end, probe s

    def probe(self) -> None:
        if not self.enabled:
            return
        t_start = perf_counter()
        best = float("inf")
        for _ in range(PROBE_REPS):
            t0 = perf_counter()
            _probe_work()
            best = min(best, perf_counter() - t0)
        self.marks.append((t_start, perf_counter(), best))

    def since_probe(self) -> float:
        """Raw seconds since the last probe ended (infinite before the first)."""
        return perf_counter() - self.marks[-1][1] if self.marks else float("inf")

    def _segments(self, a: float):
        """(start, end, factor) for the gaps around and between probes."""
        m = self.marks
        yield float("-inf"), m[0][0], (PROBE_NOMINAL_S / m[0][2]) ** a
        for p, q in zip(m, m[1:]):
            yield p[1], q[0], (2.0 * PROBE_NOMINAL_S / (p[2] + q[2])) ** a
        yield m[-1][1], float("inf"), (PROBE_NOMINAL_S / m[-1][2]) ** a

    def scaled(self, t0: float, t1: float, alpha: float | None = None) -> float:
        """Seconds from t0 to t1 at nominal speed, probe time left out.

        With alpha 0 this is the raw time, probe time still left out.
        """
        if not self.enabled or not self.marks:
            return t1 - t0
        a = self.alpha if alpha is None else alpha
        total = 0.0
        for start, end, factor in self._segments(a):
            lo, hi = max(t0, start), min(t1, end)
            if hi > lo:
                total += (hi - lo) * factor
        return total

    def speed(self) -> float:
        """Median machine speed over the run, as nominal / probe time."""
        if not self.marks:
            return 1.0
        probes = sorted(p for _, _, p in self.marks)
        return PROBE_NOMINAL_S / probes[len(probes) // 2]
