"""The host's speed during a run, from a fixed pure-Python loop.

The benchmark runs on a shared host whose speed swings by up to a factor
of two for seconds or minutes at a time, as other tenants come and go;
the swings move every operation of a run alike.  :class:`Probe` times
:func:`reference` between operations, evenly over the run's operation
time, and :meth:`Probe.scale` gives the factor that turns the run's
measured times into times at the reference speed: ``REF_S`` over the
loop's mean time.  The loop is stdlib only and does not touch ``ocbord``,
so a change to the program moves the scaled times as much as the
measured ones.

Nothing here imports ``ocbord``; the set-up child imports this module
before it starts its clock.
"""

import statistics
import time

REF_LOOPS = 40000
# The loop's median time on a 2-core Intel Xeon VM when no other tenant
# slows it; it sets the unit of the scaled times, nothing else.
REF_S = 0.00375


def reference():
    d = {}
    for i in range(REF_LOOPS):
        k = i & 255
        d[k] = d.get(k, 0) + i
    return d


def sample():
    """The duration of one run of :func:`reference`."""
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


class Probe:
    """Reference samples taken between operations."""

    def __init__(self):
        self.times = []

    def sample(self):
        """Take one sample; return its duration."""
        dt = sample()
        self.times.append(dt)
        return dt

    def scale(self):
        """``REF_S`` over the mean sample."""
        return REF_S / statistics.fmean(self.times)
