"""How fast the host runs right now, measured on a fixed piece of reference work.

The benchmark shares a few virtual CPUs of a host with other tenants, and
the speed of the same Python code drifts by up to 2x over seconds to
minutes.  ``Pace`` samples that speed while the workload runs: a profiling
timer interrupts the workload after every ``INTERVAL_S`` seconds of
process CPU time and times one ``reference_work()`` call, from the same
thread, so the sample sees the same contention as the code around it.  The
time spent in samples is taken out of every measured interval.

A measured interval is then scaled to *reference seconds*: its own wall
time times ``REFERENCE_S`` over the median reference-work time sampled
within ``WINDOW_S`` of it.  ``REFERENCE_S`` is a typical reference-work
time on the machine the benchmark was written on (2 vCPUs of a shared
x86-64 host, Python 3.11, where the run medians range from 1.0 to 1.7 ms),
so reference seconds are of the order of that machine's wall seconds.  The reference work is fixed here, outside
the program under test: a change to ``qtl`` moves the scaled times by
exactly as much as it moves the wall times.
"""

from __future__ import annotations

import bisect
import json
import random
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05  # process CPU time between samples
WINDOW_S = 1.0  # samples this close to an interval set its scale
REFERENCE_S = 0.0012  # typical reference_work() time on the reference machine

_rng = random.Random(20261017)
_N = 12
_ROWS = [[(_rng.randint(-300, 300), _rng.randint(-300, 300)) for _ in range(_N)] for _ in range(_N)]
_DOC = json.dumps({
    "dimension": 3,
    "actions": [
        {"name": f"a{k}", "kraus": [[[f"{_rng.randint(-5, 5)}/{_rng.randint(1, 7)}" for _ in range(3)]
                                     for _ in range(3)] for _ in range(2)]}
        for k in range(2)
    ],
})


def reference_work():
    """Two kinds of work ``qtl`` spends its time in, in a fixed copy that
    changes to ``qtl`` cannot reach: fraction-free (Bareiss) elimination
    over the Gaussian integers on rows of integer pairs, as in its rank,
    kernel and inverse (most of the time), and reading a
    JSON document of rational matrix entries, as its front end does.
    Returns a value of both, so the work cannot be skipped."""
    rows = [row[:] for row in _ROWS]
    prev_re, prev_im = 1, 0
    for c in range(_N - 1):
        pre, pim = rows[c][c]
        pn = prev_re * prev_re + prev_im * prev_im
        row_c = rows[c]
        for i in range(c + 1, _N):
            row_i = rows[i]
            tre, tim = row_i[c]
            for j in range(c, _N):
                are, aim = row_i[j]
                bre, bim = row_c[j]
                nre = pre * are - pim * aim - (tre * bre - tim * bim)
                nim = pre * aim + pim * are - (tre * bim + tim * bre)
                row_i[j] = ((nre * prev_re + nim * prev_im) // pn, (nim * prev_re - nre * prev_im) // pn)
        prev_re, prev_im = pre, pim
    doc = json.loads(_DOC)
    total = Fraction(0)
    for action in doc["actions"]:
        for kraus in action["kraus"]:
            for row in kraus:
                total += sum(Fraction(entry) for entry in row)
    return rows[-1][-1], total, len(json.dumps(doc, sort_keys=True))


class Pace:
    """Samples of the reference work, taken while the workload runs."""

    def __init__(self):
        self.starts = []  # perf_counter() at the start of each sample
        self.seconds = []  # its duration
        self.spent = 0.0  # total time spent in samples (handler included)
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        enter = time.perf_counter()
        try:
            start = time.perf_counter()
            reference_work()
            end = time.perf_counter()
            self.starts.append(start)
            self.seconds.append(end - start)
        finally:
            self.spent += time.perf_counter() - enter
            self._busy = False

    def start(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def scale(self, start, end):
        """REFERENCE_S over the median sample within WINDOW_S of
        [start, end]; 1.0 when there is no sample."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if lo >= hi:
            return 1.0
        return REFERENCE_S / statistics.median(self.seconds[lo:hi])

    def summary(self):
        """Sample count and the median and quartiles of the samples (s)."""
        if len(self.seconds) < 2:
            return {"samples": len(self.seconds)}
        q1, q2, q3 = statistics.quantiles(self.seconds, n=4)
        return {"samples": len(self.seconds), "median_s": q2, "q1_s": q1, "q3_s": q3}


class Stopwatch:
    """Times one interval, without the samples taken inside it."""

    def __init__(self, pace: Pace | None):
        self.pace = pace

    def __enter__(self):
        self.spent0 = self.pace.spent if self.pace else 0.0
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        inside = (self.pace.spent if self.pace else 0.0) - self.spent0
        self.seconds = self.end - self.start - inside
        return False

    def reference_seconds(self):
        """The interval in reference seconds; call after the workload ended,
        so that samples taken after the interval count too."""
        return self.seconds * (self.pace.scale(self.start, self.end) if self.pace else 1.0)
