"""The machine's speed, read off a fixed reference kernel between operations.

The shared host this benchmark runs on changes speed by up to a factor of
two for seconds to minutes at a time, while nothing else runs in the
container (see README.md).  No statistic taken within a run removes a slow
spell that covers the whole run.  So a run times a fixed reference at most
every `EVERY` seconds between operations, and each operation's latency is
scaled by (the reference's nominal time) / (its mean time around the
operation).  A scaled latency is the operation's time on a machine where the
reference takes its nominal time; it moves with the program, not with the
host.  In-process operations are scaled by a kernel of Python integers,
mpmath complex numbers and small numpy arrays; process start-ups (`cli`
commands, set-up) by a fresh interpreter that imports mpmath.  Neither
runs arithdyn code.
"""

from __future__ import annotations

import bisect
import subprocess
import sys
import time

import mpmath
import numpy as np

EVERY = 0.05          # seconds of operations between two kernel timings
WINDOW = 1.0          # kernel timings this close to an operation scale it
NOMINAL_S = 1.5e-3    # about the kernel's time on this machine in a fast spell
PROCESS_NOMINAL_S = 0.1   # about the reference process's time there

_C = mpmath.mpc(-0.1, 0.65)
_A = np.linspace(-1.0, 1.0, 8) + 0.5j


def kernel():
    """Fixed work in the three kinds of code the workloads spend time in."""
    s = 0
    for i in range(1, 2500):
        s += (i * i * 2654435761) % (i + 7)
    with mpmath.workdps(40):
        z = mpmath.mpc(0.3, 0.4)
        for _ in range(60):
            z = z * z + _C
            if abs(z) > 2:
                z /= 4
    a = _A
    for _ in range(40):
        a = np.where(np.abs(a) > 2.0, a / 4.0, a * a + 0.1)
    return s, z, a


def kernel_seconds():
    """The kernel's time on its second of two back-to-back calls, so that
    what the operation before it left in the caches does not count."""
    kernel()
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def process_seconds():
    """Wall time of a fresh interpreter that imports mpmath."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import mpmath"], check=True,
                   capture_output=True, timeout=60)
    return time.perf_counter() - t0


class Pacer:
    """Times a reference between operations: at start, whenever EVERY
    seconds have passed since the last timing, and at the end of every
    round."""

    def __init__(self, reference=kernel_seconds, nominal=NOMINAL_S):
        self.reference = reference
        self.nominal = nominal
        self.times = []           # perf_counter at each timing
        self.samples = []         # the reference's seconds at each timing
        self.sample()

    def sample(self):
        self.times.append(time.perf_counter())
        self.samples.append(self.reference())

    def tick(self):
        if time.perf_counter() - self.times[-1] >= EVERY:
            self.sample()

    def scaled(self, start, seconds):
        """`seconds` of an operation that began at `start`, at the nominal
        speed: scaled by the reference's mean time over its timings within
        WINDOW of the operation, and at least the ones just before and just
        after it (where there are any)."""
        lo = min(bisect.bisect_left(self.times, start - WINDOW),
                 bisect.bisect_right(self.times, start) - 1)
        end = start + seconds
        hi = max(bisect.bisect_right(self.times, end + WINDOW),
                 bisect.bisect_left(self.times, end) + 1)
        near = self.samples[max(lo, 0):hi]
        return seconds * self.nominal * len(near) / sum(near)
