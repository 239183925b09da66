"""Machine-speed sampling: converts measured seconds to reference seconds.

The virtual machines this benchmark runs on change speed by tens of
percent for seconds at a time, and each core does so on its own: over
a minute, the speed of one core relative to the other ranged from 0.76
to 1.42.  So the speed is sampled on the core that runs the work, in
the same thread.  :class:`SpeedSampler` times a fixed pure-Python loop
(:func:`loop`), either from a ``SIGALRM`` timer every :data:`PERIOD_S`
seconds while single-client items run, or explicitly between passes of
concurrent clients, which leave the benchmark's own thread idle.  The
loop is timed in thread CPU time, so time the thread spends waiting for
a core does not count.

A time measured between ``start`` and ``end`` is scaled by
``REFERENCE_S / mean loop time`` over that interval: it becomes the
time the same work would take on a machine on which the loop takes
:data:`REFERENCE_S`.  Times are taken with :meth:`SpeedSampler.clock`,
which leaves out the time spent sampling, so an item is not charged for
the samples taken while it ran.

Starting a fresh process -- exec, page faults, reading and unmarshalling
modules -- follows the machine's speed differently from the loop.  Over
ten minutes in which the loop's speed moved by 25%, a set-up time scaled
by the loop still moved by 16% (window medians), against 6% when scaled
by the time of a :data:`BASELINE` process spawned just before it.  So
set-up times are scaled by :func:`baseline_s` instead:
``BASELINE_S / baseline_s()`` reference seconds per measured second.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import subprocess
import sys
import time

#: CPU seconds the loop takes on the reference machine.
REFERENCE_S = 0.002

#: Arguments of the baseline process: an interpreter that imports numpy,
#: which runs none of the program under test.
BASELINE = ("-c", "import numpy")

#: Wall seconds the baseline process takes on the reference machine.
BASELINE_S = 0.15

#: Seconds between timer-driven samples.
PERIOD_S = 0.02

#: A time is scaled by at least this many samples.
MIN_SAMPLES = 3


def loop() -> None:
    """The fixed work a sample times."""
    total, table = 0, {}
    for i in range(20_000):
        total += i * i
        table[i & 1023] = total


def baseline_s(env: dict) -> float:
    """Wall seconds to spawn the :data:`BASELINE` process and reap it."""
    start = time.perf_counter()
    subprocess.run([sys.executable, *BASELINE], env=env, check=True)
    return time.perf_counter() - start


class SpeedSampler:
    """Samples the speed of the core running the calling thread.

    As a context manager it takes :data:`MIN_SAMPLES` samples on entry
    and on exit, and with *timer* one every :data:`PERIOD_S` in between,
    from a ``SIGALRM`` handler, which runs in the main thread between
    bytecodes.  Without *timer*, :meth:`sample` calls take the rest.
    """

    def __init__(self, timer: bool):
        self.timer = timer
        #: Wall seconds spent sampling so far.
        self.spent = 0.0
        self._times: list[float] = []
        self._loop_s: list[float] = []
        self._busy = False

    def clock(self) -> float:
        """``perf_counter`` minus the time spent sampling."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no sample ran in between
                return now - spent

    def sample(self, *_signal) -> None:
        """Time :func:`loop` once (also the ``SIGALRM`` handler)."""
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        cpu = time.thread_time()
        loop()
        self._loop_s.append(time.thread_time() - cpu)
        self._times.append(start - self.spent)
        self.spent += time.perf_counter() - start
        self._busy = False

    def __enter__(self) -> "SpeedSampler":
        for _ in range(MIN_SAMPLES):
            self.sample()
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        for _ in range(MIN_SAMPLES):
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per :meth:`clock` second over ``[start, end]``.

        Uses the samples taken inside the interval, widened to the
        :data:`MIN_SAMPLES` nearest ones for short intervals.
        """
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_right(self._times, end)
        while hi - lo < MIN_SAMPLES:
            if lo > 0:
                lo -= 1
            if hi - lo < MIN_SAMPLES and hi < len(self._times):
                hi += 1
        return REFERENCE_S / statistics.fmean(self._loop_s[lo:hi])

    def reference_s(self, start: float, end: float) -> float:
        """The reference seconds of the interval ``[start, end]``."""
        return (end - start) * self.scale(start, end)
