"""Rescaling of measured times to a reference machine speed.

Shared machines switch between speed states about 2x apart, every few
seconds to every few minutes, which no run length averages out. A fixed
calibration kernel of pure-Python arithmetic, small-array numpy and scipy's
max flow on a fixed network (none of it netlasso code) is timed right
before and right after every timed block, and every ``INTERVAL`` seconds
inside it from a SIGALRM handler, whose time the block does not count. A
block's reference time is its time multiplied by ``REF_SECONDS`` over the
mean of its kernel times: its duration on a machine where the kernel takes
``REF_SECONDS``.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import maximum_flow

REF_SECONDS = 0.001
# A block that starts within this many seconds of the previous block's end
# reuses that block's closing sample as its opening one.
REUSE_SECONDS = 0.05
INTERVAL = 0.5

_rng = np.random.default_rng(0)
_tails, _heads = _rng.integers(0, 60, 400), _rng.integers(0, 60, 400)
_keep = _tails != _heads
_NETWORK = sp.csr_matrix(
    (_rng.integers(1, 100, _keep.sum()).astype(np.int32), (_tails[_keep], _heads[_keep])),
    shape=(60, 60),
)


def _kernel() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(4_000):
        total += i * i
    a = np.arange(2000.0)
    for _ in range(8):
        a = np.abs(a - 1.5) * 0.999 + np.sign(a)
    for _ in range(2):
        net = sp.csr_matrix(
            (_NETWORK.data.copy(), _NETWORK.indices.copy(), _NETWORK.indptr.copy()),
            shape=_NETWORK.shape,
        )
        maximum_flow(net, 0, 59)
    return time.perf_counter() - start


def kernel_seconds() -> float:
    """Kernel time, the faster of two runs so that the first warms the caches."""
    return min(_kernel(), _kernel())


class Calibration:
    """Kernel samples around and inside timed blocks; see the module docstring."""

    def __init__(self):
        self.samples: list[float] = []
        self._last_end = None
        self._inside: list[float] = []
        self._inside_seconds = 0.0

    def _sample(self) -> float:
        self.samples.append(kernel_seconds())
        return self.samples[-1]

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._inside.append(self._sample())
        self._inside_seconds += time.perf_counter() - start

    def before(self) -> None:
        recent = self._last_end is not None and time.perf_counter() - self._last_end < REUSE_SECONDS
        self._opening = self.samples[-1] if recent else self._sample()
        self._inside, self._inside_seconds = [], 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def after(self, block) -> None:
        """Takes the kernel's time out of ``block.seconds`` and sets ``block.ref_seconds``."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        block.seconds -= self._inside_seconds
        kernel = statistics.fmean([self._opening, *self._inside, self._sample()])
        self._last_end = time.perf_counter()
        block.ref_seconds = block.seconds * REF_SECONDS / kernel
