"""Machine-speed reference: a fixed kernel timed every few milliseconds.

On a shared host the same work can take 40% longer for tens of seconds at
a time, and CPU time drifts with wall time, so the processor is slower,
not time taken from the process.  While the benchmark times operations, a
timer signal runs a short fixed kernel every ``PERIOD`` seconds in the
main thread and records how long it took.  An operation's time is then
reported at reference speed: its wall time, less the kernel runs inside
it, times the mean of ``REFERENCE_S / kernel`` over the samples taken
during it and in ``WINDOW`` seconds either side.  NOTES.md shows the
spreads with and without this.

The kernel mixes, in about equal time, what the library's time goes to:
numpy calls on an array the size of a support cloud (the heavy scenarios'
kernels) and a loop of numpy calls on three-element arrays, whose cost is
interpreter and call overhead (the per-pair loops).  Each part alone tracks
only its own kind of work; a pure-Python loop tracked neither.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

# about the kernel's time on the 2-core x86-64 machine (AVX-512) where the
# benchmark was written; it only fixes the unit
REFERENCE_S = 2.2e-4
PERIOD = 0.1
WINDOW = 0.2
_CLOUD = np.linspace(0.0, 1.0, 5632)


def kernel_seconds() -> float:
    """The faster of two timings of the fixed kernel."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        s = 0.0
        for i in range(5):
            s += float(np.sum(np.arctan2(_CLOUD, _CLOUD + i)))
        for i in range(24):
            a = np.array([i, 1.0, 2.0])
            s += float(np.dot(a, a)) + float(np.max(np.abs(a)))
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedSampler:
    """Samples the machine's speed from a timer signal while in its ``with`` block."""

    def __init__(self):
        self.spans: list[tuple[float, float]] = []   # wall interval of each kernel run
        self.rates: list[float] = []                  # REFERENCE_S / kernel time

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def _sample(self, *_signal_args):
        t0 = time.perf_counter()
        seconds = kernel_seconds()
        self.spans.append((t0, time.perf_counter()))
        self.rates.append(REFERENCE_S / seconds)

    def reference_seconds(self, intervals) -> list[float]:
        """Each (start, end) wall interval as seconds at reference speed."""
        spans = np.asarray(self.spans)
        rates = np.asarray(self.rates)
        out = []
        for start, end in intervals:
            inside = (spans[:, 0] >= start) & (spans[:, 1] <= end)
            work = end - start - float(np.sum(spans[inside, 1] - spans[inside, 0]))
            near = (spans[:, 1] >= start - WINDOW) & (spans[:, 0] <= end + WINDOW)
            out.append(work * float(np.mean(rates[near])))
        return out
