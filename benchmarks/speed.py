"""Scaling measured durations to a fixed machine speed.

On a shared host the CPU runs whole stretches of tens of seconds up to ~1.8x
slower than usual, and every kind of code slows alike.  A fixed reference
kernel timed right before and right after an interval measures the speed the
interval ran at, so ``duration * REF_S / reference_time`` is the duration at
the speed where the kernel takes ``REF_S``: a time a program change can move
and the host's load cannot.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds one reference-kernel call takes at nominal speed: the lower
#: decile of its time on the 2-vCPU Xeon host the baseline was recorded on.
REF_S = 1.0e-3
#: The reference kernel runs for at least this long per measurement ...
REF_MIN_S = 1.5e-3
#: ... and for at least this share of the interval it brackets.
REF_SHARE = 0.03

_X = np.linspace(-3.0, 3.0, 64)


def reference_kernel() -> float:
    """Interpreter work around small numpy calls, the mix of the package's
    hot loops."""
    total = 0.0
    for i in range(200):
        total += float(np.sum(np.log1p(np.exp(-np.abs(_X + i * 1e-3)))))
    return total


def reference_time(min_s: float) -> float:
    """Mean seconds per reference-kernel call over at least ``min_s``."""
    calls = 0
    started = time.perf_counter()
    while True:
        reference_kernel()
        calls += 1
        elapsed = time.perf_counter() - started
        if elapsed >= min_s:
            return elapsed / calls


class SpeedGauge:
    """Scales each measured interval by the speed around it.

    Call :meth:`scale` right after each interval; the reference is timed
    after it and averaged with the timing taken before it.
    """

    def __init__(self):
        self._before = reference_time(REF_MIN_S)
        self.factors = []

    def scale(self, duration: float) -> float:
        after = reference_time(max(REF_MIN_S, REF_SHARE * duration))
        factor = REF_S / (0.5 * (self._before + after))
        self._before = after
        self.factors.append(factor)
        return duration * factor
