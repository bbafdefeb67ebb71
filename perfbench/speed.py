"""How fast this machine runs a kind of work at the moment, from a reference
kernel.

On a shared 2-vCPU virtual machine the same inputs ran up to 1.7 times slower
from one stretch of seconds to the next, and everything in the process slowed
together.  So the benchmark times a fixed kernel every REF_EVERY_S seconds
between items (the faster of two back-to-back runs), and scales each timing
by ``(ref_ms / d) ** sensitivity``, where ``d`` is the median duration of the
kernel runs within REF_WINDOW_S of it.  A timing then reads as it would on a
machine where the kernel takes ``ref_ms``, its median duration on the 2-vCPU
Xeon virtual machine the bounds were set on.

There are two kernels, one for each half of rigidkit, and each workload is
scaled by the one that does the kind of work its items do (see run.py):

- ``EXACT``: Fraction arithmetic and dict stores, for ``complex-product`` and
  ``rings-hulls``.  It swings further than rigidkit does: on that machine,
  over stretches of 20 items, its duration ranged 0.8-1.3 times its median
  while the same items ranged 0.88-1.12 times theirs.  So its ratio is raised
  to 0.75.  Over 70 s of each workload, the coefficient of variation of the
  item times over such stretches was, unscaled and at the exponents 0.5, 0.75
  and 1:

      complex-product  0.083  0.049  0.042  0.051
      rings-hulls      0.172  0.085  0.074  0.102

- ``FLOAT``: the small-matrix numpy work of the index engine's determinant
  indicator (stack, solve, norms, determinant), for ``index``.  Over ten
  ``index`` runs, the interquartile range over median of items_per_s was
  0.26 unscaled, 0.085 scaled by EXACT and 0.066 scaled by FLOAT at the
  exponent 1.

When the machine's speed is steady the scale is steady too, so a change to
rigidkit moves the scaled figures as much as the raw ones.

The kernels use no rigidkit code, and they run with the cyclic garbage
collector off, so neither a change to rigidkit nor the size of its heap
changes what they measure.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

REF_EVERY_S = 0.15        # sample the kernel this often between items
REF_WINDOW_S = 0.5        # a timing is scaled by the kernel samples this close to it
_FRACTIONS = [Fraction(i, 7 + i % 5) for i in range(40)]
_RNG = np.random.default_rng(7)
_FRAMES = [tuple(_RNG.standard_normal((4, 2)) for _ in range(3)) for _ in range(6)]


def _timed(work):
    """Seconds taken by one call of ``work``, with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _exact_work():
    table = {}
    for r in range(12):
        acc = Fraction(0)
        for i, f in enumerate(_FRACTIONS):
            acc += f * _FRACTIONS[-1 - i]
            table[r, i] = acc


def _float_work():
    for _ in range(6):
        for v, w, z in _FRAMES:
            c = np.linalg.solve(np.hstack([v, w]), z)
            norms = np.linalg.norm(c, axis=0)
            float(np.linalg.det(c[2:, :])) / float(np.prod(np.maximum(norms, 1e-300)))


@dataclass(frozen=True)
class Reference:
    name: str
    work: Callable[[], None]
    ref_ms: float         # the kernel's median duration on the reference machine
    sensitivity: float    # how far rigidkit's speed follows the kernel's (log-log)


EXACT = Reference("exact", _exact_work, 2.3, 0.75)
FLOAT = Reference("float", _float_work, 1.05, 1.0)


class Speedometer:
    """Kernel samples taken through a run, and the scale factor they give
    any interval of it."""

    def __init__(self, reference):
        self.reference = reference
        for _ in range(5):          # warm the kernel up; these runs are dropped
            _timed(reference.work)
        self.times, self.durations = [], []

    def sample(self, count=1):
        for _ in range(count):
            # the faster of two back-to-back runs: the first may find the
            # kernel's code and data evicted by the item before it
            d = min(_timed(self.reference.work), _timed(self.reference.work))
            self.times.append(time.perf_counter())
            self.durations.append(d)

    def maybe_sample(self):
        if not self.times or time.perf_counter() - self.times[-1] >= REF_EVERY_S:
            self.sample()

    def scale(self, start, end):
        """ref_ms over the median kernel duration within REF_WINDOW_S of
        [start, end], to the power sensitivity.  Callers sample right before
        and after every interval they scale, so the window is never empty."""
        lo = bisect.bisect_left(self.times, start - REF_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + REF_WINDOW_S)
        d = statistics.median(self.durations[lo:hi])
        return (self.reference.ref_ms / 1000 / d) ** self.reference.sensitivity

    def summary(self):
        d = [1000 * x for x in self.durations]
        q = statistics.quantiles(d, n=4)
        return {"kernel": self.reference.name, "ref_ms": self.reference.ref_ms,
                "sensitivity": self.reference.sensitivity,
                "samples": len(d), "median_ms": statistics.median(d),
                "iqr_over_median": (q[2] - q[0]) / statistics.median(d),
                "min_ms": min(d), "max_ms": max(d)}
