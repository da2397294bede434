"""Host speed reference for the end-to-end timings.

The shared host this benchmark was built on runs one vCPU at two speeds,
switching every few seconds to minutes as its neighbours come and go: the
same evaluation pass takes 1.6 to 1.9 times longer in the slow mode.
Which mode a 20 s run lands in decides its figures, so medians over runs
spread past any useful bound.  The mode is per vCPU (a reference timed
in another process tracks it poorly), so it must be read on the thread
that runs the workload.

``HostSpeed`` does that: a timer signal interrupts the workload every
``PERIOD`` seconds and times ``kernel()``, a fixed loop of small numpy
operations shaped like avex's own inner loops, which slows down with the
host about as much as avex does.  ``seconds(start, end)`` then turns a
timed interval into seconds at the reference speed: the interval, less
the probes that ran inside it, scaled by ``REF_S`` over the mean probe
time in and around it.  Intervals timed in either mode read alike; a
change in avex's own speed passes through unchanged, since the kernel
does not run avex code.
"""

from __future__ import annotations

import bisect
import signal

import numpy as np

PERIOD = 0.25
# The speed of an interval is the mean probe within this many seconds of
# it: short enough to follow the host's switches, long enough to average
# the noise of single probes.
NEAR_S = 1.0
# kernel() time at the reference speed: the fast mode of the 2 vCPU
# Intel Xeon host, numpy 2.4 with OpenBLAS on one thread.
REF_S = 3.9e-4
_REPEATS = 3


def kernel():
    x = np.ones(50)
    w = np.full((50, 50), 0.01)
    for _ in range(50):
        x = np.tanh(w @ x + 0.1)
        y = np.exp(x - x.max())
        y /= y.sum()


class HostSpeed:
    """Probes the host's speed from a timer signal while it is started."""

    def __init__(self, clock):
        self.clock = clock
        self.starts: list[float] = []
        self.probes: list[float] = []  # time of the fastest of _REPEATS kernels
        self.spent: list[float] = []  # wall time each probe took away

    def probe(self, *_signal_args):
        begin = self.clock()
        best = float("inf")
        for _ in range(_REPEATS):
            start = self.clock()
            kernel()
            best = min(best, self.clock() - start)
        self.starts.append(begin)
        self.probes.append(best)
        self.spent.append(self.clock() - begin)

    def start(self):
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def seconds(self, start: float, end: float) -> float:
        """The interval [start, end] in seconds at the reference speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        net = (end - start) - sum(self.spent[lo:hi])
        near = self.probes[bisect.bisect_left(self.starts, start - NEAR_S):
                           bisect.bisect_right(self.starts, end + NEAR_S)]
        return net * REF_S / (sum(near) / len(near))

    def summary(self) -> dict:
        return {"probes": len(self.probes), "period_s": PERIOD, "ref_s": REF_S,
                "probe_s_quartiles": [float(q) for q in
                                      np.percentile(self.probes, (25, 50, 75))]}
