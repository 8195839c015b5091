"""Machine-speed sampling, for times normalized to a fixed speed.

The benchmark runs on shared virtual machines whose speed drifts: on a
2-vCPU Intel Xeon VM shared with other tenants, a fixed pure-Python loop
took anywhere from 1x to 2x its best time, in stretches of a fraction of
a second to minutes, so whole runs, and parts of a single 2 s job, land in
fast or slow stretches.  A `Sampler` times `sample()`, a fixed job of
0.25 to 0.5 ms, every INTERVAL_S of wall time from a SIGALRM handler, so
the machine's speed is sampled all through jobs of any length.
`Sampler.times` turns a wall-clock interval into its time at the nominal
speed: the interval minus the sampler's own time inside it, times
NOMINAL_S over the trimmed mean of the samples inside it and the one on
each side.  Library and sample slow down together, so the normalized time
follows the library's own cost and not the machine's state.

The sample is independent of the library under test, so no change to the
library moves it: table-driven row reduction over GF(7), the same mix of
list comprehensions, table lookups and small tuples as the library's
code-level kernels.  NOMINAL_S is near its median time on that VM.
"""

import bisect
import signal
import statistics
import time

P = 7
INTERVAL_S = 0.025
NOMINAL_S = 0.00035

_ADD = [[(a + b) % P for b in range(P)] for a in range(P)]
_MUL = [[(a * b) % P for b in range(P)] for a in range(P)]
_NEG = [(-a) % P for a in range(P)]
_INV = [0] + [pow(a, P - 2, P) for a in range(1, P)]


def _rank(rows, ncols):
    rows = [list(r) for r in rows]
    n, r = len(rows), 0
    for c in range(ncols):
        pr = next((i for i in range(r, n) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        mrow = _MUL[_INV[rows[r][c]]]
        row = rows[r] = [mrow[x] for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                m = _MUL[_NEG[rows[i][c]]]
                rows[i] = [_ADD[x][m[y]] for x, y in zip(rows[i], row)]
        r += 1
        if r == n:
            break
    return r


def _matrices(count=16, nrows=4, ncols=9):
    """Fixed 4x9 matrices over GF(7) from a linear congruential generator."""
    x, out = 12345, []
    for _ in range(count):
        m = []
        for _ in range(nrows):
            row = []
            for _ in range(ncols):
                x = (x * 1103515245 + 12345) % 2 ** 31
                row.append((x >> 16) % P)
            m.append(tuple(row))
        out.append(tuple(m))
    return out


_MATRICES = _matrices()
_RANK_SUM = sum(_rank(m, 9) for m in _MATRICES)


def sample() -> None:
    """The reference job: row reduction of 16 fixed matrices."""
    if sum(_rank(m, 9) for m in _MATRICES) != _RANK_SUM:
        raise AssertionError("reference job gave a wrong answer")


class Sampler:
    """Times sample() every INTERVAL_S from a SIGALRM handler."""

    def __init__(self):
        self.ends, self.durations = [], []

    def _take(self, signum, frame):
        t0 = time.perf_counter()
        sample()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Stop after one more sample, so the last interval has one after it."""
        n = len(self.ends)
        while len(self.ends) == n:
            pass
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def times(self, start, end):
        """(wall, normalized) seconds of [start, end], sampler time excluded."""
        i = bisect.bisect_left(self.ends, start)
        j = bisect.bisect_right(self.ends, end)
        wall = end - start - sum(self.durations[i:j])
        around = sorted(self.durations[max(0, i - 1):j + 1])
        k = len(around) // 4
        speed = statistics.mean(around[k:len(around) - k])
        return wall, wall * NOMINAL_S / speed
