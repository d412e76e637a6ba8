"""A fixed reference loop that measures how fast the host runs right now.

The benchmark runs on a few cores of a shared host, whose speed for one
single-threaded Python process drifts by up to a factor of two within
minutes (other tenants, frequency, shared caches).  Ops are timed in wall
time and then scaled to a nominal host speed.  The benchmark times short
slices of this loop between ops and, from a timer signal every
INTERVAL_S, inside them; the slices inside an op are taken off its time.
The op's time is then multiplied by NOMINAL_S over the median of the
slices inside it and about WINDOW // 2 slices on either side.  The loop
imports nothing from `secgroups`, so a change to the library moves the
scaled times by the same factor as the wall times, while a change in host
speed moves the slices too and largely cancels out (the loop gains
somewhat more from a fast host than the library's largest ops do).

The loop is integer row reduction on lists, the kind of work the library
does most (pure-Python integer linear algebra and small-object churn).
"""

from __future__ import annotations

import gc
import signal
from statistics import median
from time import perf_counter

# one slice takes about this long on an unloaded 2-vCPU VM (1.0-1.1 ms
# there; 2.4 ms when the host was at its slowest seen); scaled times
# are the times the ops would take on a host where that holds
NOMINAL_S = 0.0011
# slices around an op that join those inside it: WINDOW // 2 before it,
# WINDOW // 2 + 1 after it
WINDOW = 9
# wall seconds between the timer signals that take a slice inside an op
INTERVAL_S = 0.05

MATRIX = [[(7 * i + 13 * j) % 11 - 5 for j in range(9)] for i in range(8)]
CHECKSUM = 264


def reduce_rows():
    """Euclid on each column of a copy of MATRIX, twelve times over."""
    total = 0
    for _ in range(12):
        a = [row[:] for row in MATRIX]
        for c in range(len(a)):
            for r in range(c + 1, len(a)):
                while a[r][c]:
                    q = a[c][c] // a[r][c]
                    a[c] = [x - q * y for x, y in zip(a[c], a[r])]
                    a[c], a[r] = a[r], a[c]
        total += sum(map(abs, a[-1]))
    return total


def time_slice():
    """Seconds one reduce_rows takes, with garbage collection held off so
    that the slice never pays for the ops' garbage."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        total = reduce_rows()
        seconds = perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
    if total != CHECKSUM:
        raise RuntimeError("reference loop gave %d" % total)
    return seconds


class HostSpeed:
    """Reference slices, with the time each started, in the order they were
    timed."""

    def __init__(self):
        self.slices = []
        self.starts = []

    def sample(self, count=1):
        for _ in range(count):
            self.starts.append(perf_counter())
            self.slices.append(time_slice())

    def time_op(self, fn, *args):
        """(fn's result, seconds, first, end): the wall seconds fn took less
        the slices the timer took inside it, and the range of slice indices
        taken while the timer was armed."""
        first = len(self.slices)
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            t0 = perf_counter()
            result = fn(*args)
            t1 = perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        inside = sum(s for s, t in zip(self.slices[first:],
                                       self.starts[first:]) if t0 <= t < t1)
        return result, t1 - t0 - inside, first, len(self.slices)

    def scale(self, first, end):
        """The factor for an op during which slices first..end-1 were
        taken: NOMINAL_S over the median of those and the WINDOW // 2
        slices before and WINDOW // 2 + 1 after them."""
        lo = max(0, first - WINDOW // 2)
        return NOMINAL_S / median(self.slices[lo:end + WINDOW // 2 + 1])

    def scale_last(self, count):
        """The factor over the last `count` slices."""
        return NOMINAL_S / median(self.slices[-count:])
