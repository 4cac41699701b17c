"""A fixed reference kernel that gauges how fast the host runs right now.

On a shared host, other tenants' load can slow every op by 1.5-2x. The
host switches between a fast and a slow state within seconds, so the
kernel must be timed while the op runs, not only before and after it. A
`Sampler` runs the kernel briefly every `interval_s` from a SIGALRM handler
(the handler runs between the op's bytecodes; there is no thread) and the
runner reports op time in multiples of the kernel's mean time during the
op. The kernel mixes what funnelnav spends its time on: interpreted float
math, small frozen dataclasses, scalar indexing into small arrays and small
numpy reductions. It never imports funnelnav, so a change to the program
cannot move it.
"""

from __future__ import annotations

import math
import signal
from dataclasses import dataclass
from time import perf_counter

import numpy as np

_M = np.linspace(0.0, 1.0, 16).reshape(4, 4)
_W = np.array([1.0, 0.5, 0.25, 0.125])
_PTS = np.random.default_rng(0).random((64, 2))


@dataclass(frozen=True)
class _Pose:
    x: float
    y: float
    h: float


def kernel(n: int = 50) -> float:
    pose = _Pose(0.0, 0.0, 0.1)
    ring = np.zeros((8, 2))
    acc = 0.0
    trace = []
    for i in range(n):
        c, s = math.cos(pose.h), math.sin(pose.h)
        pose = _Pose(pose.x + c, pose.y + s, math.atan2(s, c) + 1e-3)
        ring[i % 8, 0] = pose.x
        ring[i % 8, 1] = pose.y
        w = _W @ _M
        d = math.hypot(ring[i % 8, 0] - ring[(i + 3) % 8, 0], 1.0)
        acc += math.atanh(0.5 * math.tanh(d * 1e-3)) + float(w[i % 4])
        if i % 4 == 0:
            acc += float(np.linalg.norm(np.diff(_PTS, axis=0), axis=1).max())
        trace.append(acc)
    return acc + len(trace)


class Sampler:
    """Times `kernel()` (about 0.4 ms) every `interval_s` while the `with` block runs.

    `ref_s()` is the kernel's time at the op's mean speed: the harmonic mean
    of the samples, since speed, not time, averages over the op. `spent_s`
    is the time the samples took, which the runner takes off the op's time.
    """

    def __init__(self, interval_s: float = 0.05):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._busy = False

    def _sample(self, *_args) -> None:
        # A host that stalls the process past the interval in mid-sample
        # makes the next SIGALRM arrive inside this handler; skip that one
        # rather than nest, which would count the inner sample twice.
        if self._busy:
            return
        self._busy = True
        try:
            t0 = perf_counter()
            kernel()
            elapsed = perf_counter() - t0
            self.samples.append(elapsed)
            self.spent_s += elapsed
        finally:
            self._busy = False

    def __enter__(self):
        self.samples, self.spent_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def ref_s(self) -> float:
        """The kernel's time at the op's mean speed; an op shorter than one interval gets one sample now."""
        if not self.samples:
            self._sample()
        return len(self.samples) / sum(1.0 / t for t in self.samples)
