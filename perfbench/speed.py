"""The machine's speed, sampled beside the program.

The benchmark shares a few cores with other tenants, whose load changes how
fast the same instructions run by 20 % and more, over seconds and over
minutes.  A small fixed kernel of the kinds of work fracbvp does -- an
interpreted loop, short vector operations, FFTs and a dense LU -- is timed
just before and after each operation and every ``SAMPLE_PERIOD_S`` while
it runs.  The operation's time, less the kernel's, is then scaled by
``REF_S / median kernel time``: its time at the speed at which the kernel
takes ``REF_S``.  The kernel calls numpy and scipy only, so a change to
fracbvp moves the operation's time and not the kernel's.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.linalg

#: Kernel seconds at the reference speed, about the kernel's median during
#: operations on the 2-vCPU Xeon (Skylake-X) VM the benchmark was tuned on.
REF_S = 0.0075

#: Kernel samples before and after each interval timed without periodic
#: samples (a process waiting on a child would compete with it).
BRACKET = 3

#: Seconds between kernel samples while an operation runs (the samples
#: cost about 4 % of the run).
SAMPLE_PERIOD_S = 0.25

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((256, 256)) + 256.0 * np.eye(256)
_v = np.linspace(0.0, 1.0, 2048)
_x = _rng.standard_normal(32768)


def kernel() -> float:
    """Run the fixed kernel once; returns its wall seconds."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(10000):
        s += i * 0.5
    w = _v
    for _ in range(100):
        w = np.sqrt(w * w + 1.0) - 0.5
    for _ in range(4):
        np.fft.irfft(np.fft.rfft(_x))
    scipy.linalg.lu_factor(_A)
    return time.perf_counter() - t0


class Speedometer:
    """Kernel samples around one timed interval, and the wall and CPU
    seconds the samples taken inside it cost."""

    def __init__(self):
        self.samples: list[float] = []
        self.wall = self.cpu = 0.0
        self.periodic = True

    def _sample(self, *_):
        t0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(kernel())
        self.wall += time.perf_counter() - t0
        self.cpu += time.process_time() - c0

    def start(self, periodic: bool = True) -> None:
        """Sample before the interval and, if ``periodic``, arm a timer that
        samples during it."""
        self.samples = [kernel() for _ in range(1 if periodic else BRACKET)]
        self.wall = self.cpu = 0.0
        self.periodic = periodic
        if periodic:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> float:
        """Disarm the timer and sample after the interval; returns the scale
        ``REF_S / median sample``."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.samples += [kernel() for _ in range(1 if self.periodic else BRACKET)]
        return REF_S / statistics.median(self.samples)
