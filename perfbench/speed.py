"""Machine speed sampled through a round, to scale its times to a reference speed.

The cores of a shared host run the same code 20-45 % faster or slower
from one minute to the next, as other tenants come and go, so raw wall
times of runs made minutes apart spread further than any useful bound.
While a round runs, a SIGALRM timer interrupts the program every
INTERVAL_S and times a fixed calibration kernel: pure-Python dict
polynomial products and big-integer arithmetic, the same kinds of work
the program does, written here so that no program change can move it.
Each stretch of program time between two kernel samples is scaled by
KERNEL_REF_S over the mean of those two samples; the sum is the round's
time at the reference speed.  Kernel time itself is left out of both the
raw and the scaled time.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.08
# The kernel's time on the reference machine: a 2-core Xeon (Sapphire
# Rapids) KVM guest, Python 3.11.7, in its usual, contended state.
KERNEL_REF_S = 0.004

_SMALL_A = {e: (e * 7 + 3) % 11 - 5 for e in range(-6, 7)}
_SMALL_B = {e: (e * 5 + 1) % 13 - 6 for e in range(-4, 9)}
_WIDE = {e: 3 ** (e % 37 + 30) * (-1) ** e for e in range(-20, 21)}
_X = 3**6000 + 1
_Y = 7**5000 - 5


def _mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            v = get(e, 0) + ca * cb
            if v:
                out[e] = v
    return out


def kernel() -> None:
    """The fixed calibration work, about KERNEL_REF_S seconds."""
    for _ in range(6):
        _mul(_SMALL_A, _SMALL_B)
        _mul(_WIDE, _SMALL_B)
        _X * _Y // _X


def time_kernel(clock=time.perf_counter) -> float:
    t = clock()
    kernel()
    return clock() - t


class SpeedSampler:
    """Samples the kernel's time before, every INTERVAL_S during, and after a block."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.ticks: list[tuple[float, float]] = []  # (kernel start, kernel seconds)
        self._previous = None

    def tick(self, *_) -> None:
        start = self.clock()
        self.ticks.append((start, time_kernel(self.clock)))

    def __enter__(self) -> SpeedSampler:
        self.tick()
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.tick()

    def span(self, start: float, end: float) -> tuple[float, float]:
        """(raw, scaled) program time within [start, end], kernel time left out."""
        raw = scaled = 0.0
        for (s0, k0), (s1, k1) in zip(self.ticks, self.ticks[1:]):
            lo, hi = max(start, s0 + k0), min(end, s1)
            if hi > lo:
                raw += hi - lo
                scaled += (hi - lo) * KERNEL_REF_S * 2 / (k0 + k1)
        return raw, scaled
