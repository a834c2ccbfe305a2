"""A fixed calibration kernel that measures how fast the host runs now.

The benchmark was tuned on a shared 2-vCPU VM whose speed drifts by
up to about 3x over minutes, in wall time and in CPU time alike.
Timed metrics are therefore normalised: next to every timed sample the
benchmark times this kernel, and scales the sample to a host on which
one kernel call takes :data:`REFERENCE_S`.  A timed quantity ``t``
measured while the kernel took ``c`` seconds is reported as
``t * REFERENCE_S / c``.

The kernel mixes what the serving stack spends its time on: Python
bytecode (loops, attribute and dict access, calls), numpy calls on
arrays of a few hundred samples, and pickling plus a pipe round trip
(the journal and the worker IPC).  It uses nothing from ``src/``, so
a change to the program cannot move it.
"""

from __future__ import annotations

import os
import pickle
import time

import numpy as np

#: Kernel time that defines the reference host, in seconds: about what
#: one call takes on the tuning host in its fast stretches.
REFERENCE_S = 0.25e-3

_X = np.sin(np.arange(360) * 0.05) + 0.1 * np.cos(np.arange(360) * 0.9)
_TAPS = np.hanning(15) / np.hanning(15).sum()


class _Acc:
    __slots__ = ("total", "peaks")

    def __init__(self) -> None:
        self.total = 0.0
        self.peaks: dict[int, float] = {}

    def add(self, i: int, v: float) -> None:
        self.total += v
        if v > self.peaks.get(i & 15, -1.0):
            self.peaks[i & 15] = v


_PIPE = None


def _pipe() -> tuple[int, int]:
    global _PIPE
    if _PIPE is None:
        _PIPE = os.pipe()
    return _PIPE


def kernel() -> float:
    """One unit of fixed work (0.2 to 0.6 ms on the tuning host)."""
    rfd, wfd = _pipe()
    acc = _Acc()
    x = _X
    for k in range(6):
        y = np.convolve(x, _TAPS, mode="same")
        d = np.diff(y)
        idx = np.flatnonzero((d[:-1] > 0) & (d[1:] <= 0))
        acc.add(k, float(np.max(np.abs(y))) + len(idx))
        x = y[::-1].copy()
    for i in range(700):
        acc.add(i, (i * 7 % 13) * 0.5)
    for _ in range(4):
        blob = pickle.dumps((acc.peaks, x[:90]), protocol=pickle.HIGHEST_PROTOCOL)
        os.write(wfd, blob)
        acc.add(0, len(os.read(rfd, 65536)))
    return acc.total


class Calibration:
    """Kernel samples taken next to one timed quantity."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.cpu_s = 0.0  # CPU time the kernel itself spent

    def take(self, n: int = 1) -> None:
        """Time ``n`` kernel calls after one untimed call: the first call
        after other work runs on cold caches, and how cold depends on
        the program, not on the host."""
        clock = time.perf_counter
        cpu0 = time.process_time()
        kernel()
        for _ in range(n):
            t0 = clock()
            kernel()
            self.samples.append(clock() - t0)
        self.cpu_s += time.process_time() - cpu0

    @property
    def kernel_s(self) -> float:
        """Mean kernel time, leaving out samples that were preempted.

        The host switches between a fast and a slow speed (about 1.9x
        apart) several times a second, so the mean over samples spread
        through a timed stretch tracks the speed that stretch ran at.
        A sample more than three times the fastest one was descheduled,
        which is not a speed.
        """
        cut = 3.0 * min(self.samples)
        kept = [t for t in self.samples if t <= cut]
        return sum(kept) / len(kept)

    def scale(self) -> float:
        """Factor that takes a time measured now to the reference host."""
        return REFERENCE_S / self.kernel_s
