"""Host-speed probe: a fixed numpy and Python kernel with no fairband code.

Shared 2-core hosts change speed by up to 2x within seconds, and CPU time
tracks wall time, so raw timings of the same work spread by 10-40% from run
to run. Every timed interval is therefore scaled by the probe time measured
around it:

    normalized = (interval - probe time inside it) * REFERENCE_S / tick time

which reads as the interval on a host where a tick takes REFERENCE_S.

The kernel makes many numpy calls on a 64-element array, so it measures
per-call interpreter and numpy overhead. Run to run, that tracked
line3-2ch-seeds and synth-v512 better than a kernel over 512 x 512 arrays or
one mixing both: over 5-6 seeds on a busy host the spread of steps_per_s fell
from 0.11 (raw) to 0.02 on line3-2ch-seeds and from 0.15 to 0.03 on
synth-v512. On a quiet host it can add a few percent of spread instead.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import threading
import time
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.5
# median tick on a shared 2-core Intel Xeon VM (Python 3.11, numpy 2.4), with
# the kernel run in one thread and in two threads at once
REFERENCE_S = {1: 0.0038, 2: 0.0088}

_SMALL = np.arange(64, dtype=float)


def kernel() -> float:
    acc = 0.0
    seen = {}
    for k in range(300):
        b = np.exp(_SMALL - _SMALL.max())
        b /= b.sum()
        acc += float(np.where(b > 0.01, b, 0.0).sum())
        seen[k & 63] = acc
    return acc


class HostProbe:
    """Probe ticks, taken on demand or every INTERVAL_S from SIGALRM.

    Timer ticks run in the main thread between bytecodes, so they only serve
    work done in the main thread. Work that runs in two threads (the cli
    fan-out) also depends on how fast the threads hand the interpreter lock
    to each other; for it a tick runs the kernel in two threads at once, and
    ticks are taken before and after each job instead.
    """

    def __init__(self, threads: int = 1):
        self.threads = threads
        self.reference_s = REFERENCE_S[threads]
        # Dense one-thread ticks are steady, so the mean of those around an
        # interval tracks the host best. Two-thread ticks swing by 2x from one
        # to the next (thread start-up, lock hand-offs), so those take the
        # median over the ticks within 5 s of the interval.
        self.window_s = 0.0 if threads == 1 else 5.0
        self.starts: list[float] = []
        self.durations: list[float] = []

    def tick(self):
        t0 = time.perf_counter()
        if self.threads == 1:
            kernel()
        else:
            workers = [threading.Thread(target=kernel) for _ in range(self.threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def _on_alarm(self, signum, frame):
        self.tick()

    @contextmanager
    def periodic(self):
        """Tick at both ends of the block and, single-threaded, every INTERVAL_S."""
        timer = self.threads == 1
        if timer:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            self.tick()
            yield self
        finally:
            if timer:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            self.tick()

    @contextmanager
    def around(self):
        """Tick just before and just after the block."""
        self.tick()
        try:
            yield
        finally:
            self.tick()

    def _span(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def inside(self, t0: float, t1: float) -> float:
        """Probe time spent inside [t0, t1)."""
        lo, hi = self._span(t0, t1)
        return sum(self.durations[lo:hi])

    def factor(self, t0: float, t1: float) -> float:
        """The reference over the tick time during [t0, t1), taken from the
        ticks inside it or within window_s of it, and at least the nearest
        tick on each side."""
        lo, hi = self._span(t0, t1)
        wlo, whi = self._span(t0 - self.window_s, t1 + self.window_s)
        near = self.durations[min(wlo, max(lo - 1, 0)):max(whi, hi + 1)]
        tick = statistics.median(near) if self.threads > 1 else statistics.fmean(near)
        return self.reference_s / tick

    def normalized(self, t0: float, t1: float) -> float:
        return (t1 - t0 - self.inside(t0, t1)) * self.factor(t0, t1)

    def raw(self, t0: float, t1: float) -> float:
        return t1 - t0 - self.inside(t0, t1)
