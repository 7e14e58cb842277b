"""Host times scaled by the machine's speed while they were measured.

The shared hosts this benchmark runs on change speed for long stretches: a
fixed loop runs up to about 1.6 times slower for 10-20 s at a time, and CPU
time slows down with wall time. A 15-s run can fall wholly into a slow
stretch or a fast one, so medians of raw host times spread by up to a
quarter across runs of the same code.

While a timed block runs, a fixed kernel (a small Python loop, a list of
tuples built and dropped, and numpy passes over a 2 MiB array: a mix like
the program's own) is timed every ``PERIOD_S`` seconds from a SIGALRM
handler, and once before and once after the block. The block's host time,
without the kernel's, is scaled by ``NOMINAL_S`` / (median kernel time).
``NOMINAL_S`` is close to the kernel's median time inside the workloads on
the reference machine (2 vCPUs, Intel Xeon, Python 3.11) when it ran fast,
so scaled times read about as host seconds at that speed. The kernel uses
nothing of affsim, so a change to the program cannot move it.
"""
from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

PERIOD_S = 0.1
NOMINAL_S = 1.5e-3

_RNG = np.random.default_rng(0)
_ARRAY = _RNG.random(1 << 18)
_INDEX = _RNG.integers(0, _ARRAY.size, 1 << 14)


def kernel():
    total, table = 0, {}
    for i in range(3000):
        total += i * i % 7
        table[i & 63] = total
    rows = [(i, i + 1, 0.5 * i) for i in range(3000)]
    _ARRAY.sum()
    _ARRAY[_INDEX].sum()
    np.count_nonzero(_ARRAY > 0.5)
    return total + len(rows)


def kernel_time():
    # With the collector on, the kernel's allocations could start a
    # collection of the program's objects and time it as machine speed.
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(host_s, kernel_times):
    return host_s * NOMINAL_S / statistics.median(kernel_times)


@dataclass
class Timing:
    elapsed_s: float = 0.0  # host seconds, kernel samples included
    host_s: float = 0.0  # host seconds without the kernel samples
    kernel_times: list = field(default_factory=list)

    @property
    def scaled_s(self):
        return scale(self.host_s, self.kernel_times)


_samples = None  # the running block's kernel times, or None


def _sample(signum, frame):
    if _samples is not None:
        _samples.append(kernel_time())


@contextmanager
def timed():
    """Time the block; the Timing is filled in when it ends."""
    global _samples
    signal.signal(signal.SIGALRM, _sample)
    t = Timing(kernel_times=[kernel_time()])
    _samples = inside = []
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    start = time.perf_counter()
    try:
        yield t
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        t.elapsed_s = time.perf_counter() - start
        _samples = None
        t.host_s = t.elapsed_s - sum(inside)
        t.kernel_times += inside
        t.kernel_times.append(kernel_time())
