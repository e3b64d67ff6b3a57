"""Timing scaled to a reference machine speed.

The shared host the reference numbers come from changes speed for
stretches of seconds to minutes: the same enumeration took 0.37 s in one stretch and
0.70 s in the next.  A clock therefore times a fixed pure-Python kernel
next to the work: once just before and once just after each timed call,
and every ``PERIOD_S`` seconds from a timer signal while the call runs.
The call's time is scaled by ``CAL_REF_S`` over the kernel's mean time,
which gives seconds at the speed at which the kernel takes ``CAL_REF_S``.
The program under test is CPU-bound Python too, so the slow stretches
slow both down, though not always by the same factor.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array

# kernel seconds on the reference host in a quiet stretch
CAL_REF_S = 0.0014
PERIOD_S = 0.1


def kernel_seconds() -> float:
    """Time a fixed kernel of integer arithmetic and dict stores."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(12000):
        acc = (acc + i * i) & 0xFFFF
        table[i & 511] = acc
    return time.perf_counter() - start


class Clock:
    """Times calls at reference speed.

    Use as a context manager.  ``start_sampling`` makes a timer signal time
    the kernel every ``PERIOD_S`` seconds.  The handler runs in the main
    thread between bytecodes, so it measures the core the program runs on;
    a sampling thread can run on the other core, whose speed differed.
    The timer stops on exit.
    """

    def __init__(self) -> None:
        # flat (start, kernel seconds) pairs: an array holds no Python
        # objects, so sampling leaves nothing behind on the program's heap
        self._samples = array("d")
        self._previous = None

    def __enter__(self) -> "Clock":
        return self

    def __exit__(self, *exc) -> None:
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def start_sampling(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._samples.extend((start, kernel_seconds()))

    def time(self, fn, in_process: bool = True):
        """Run ``fn``; return (result, wall seconds, seconds at reference speed).

        Kernel samples taken while ``fn`` ran paused it, so they are taken
        off the time of work in this process before scaling; a child process
        is not paused by them.
        """
        before = kernel_seconds()
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        after = kernel_seconds()
        samples = self._samples[:]
        inside = [took for t, took in zip(samples[::2], samples[1::2]) if t >= start and t + took <= end]
        busy = end - start - (sum(inside) if in_process else 0.0)
        return result, end - start, busy * CAL_REF_S / statistics.fmean([before, after, *inside])
