"""Times scaled to a nominal machine speed, sampled while the timed code runs.

On a shared host the speed a process gets drifts by up to a factor of two
within a minute (see NOTES.md, "Spread between runs"), far more than the
changes the benchmark must detect.  ``Clock`` therefore samples the speed
while it times: a timer signal interrupts the timed code every
``PERIOD_S`` seconds, and the handler times one run of ``chunk``, a fixed
computation that touches no ``ppt`` code.  One more chunk is timed just
before and one just after the timed region.  The scaled time is the raw time
minus the handlers' time, multiplied by ``CHUNK_S`` over the mean chunk time:
the time the code would have taken at a speed where a chunk takes
``CHUNK_S`` seconds.  Because ``chunk`` does not call ``ppt``, a faster
``ppt`` shows in full.

The chunk mixes the kinds of work of ``ppt``'s hot paths, weighted towards
the multiset differences of the cost matrices: ``Counter`` objects of
coordinate tuples, some drawn from a pool of about two megabytes so that they
miss the caches as ``ppt``'s own atoms do, interpreted integer arithmetic,
small numpy sorts and a random gather from a 3 MB array.  Of the mixes
compared (NOTES.md), this one tracked the transport and Monte Carlo
operations best.  A signal handler runs between bytecodes, so a long numpy
call delays a sample but is not cut short.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import Counter

import numpy as np

# Nominal seconds of one chunk: about its median between the operations'
# work (caches cold) on the machine of NOTES.md; alone in a loop it is faster.
CHUNK_S = 2e-3
PERIOD_S = 0.08  # interval between samples inside the timed region

_rng = np.random.default_rng(0)
_ATOMS = [(i % 97 / 97.0, i % 89 / 89.0) for i in range(120)]
_POOL = list(map(tuple, _rng.random((20_000, 2)).tolist()))
_PICKS = [[_POOL[j] for j in _rng.integers(0, len(_POOL), 150)] for _ in range(64)]
_ARRAY = np.arange(2000.0)
_BIG = _rng.random(400_000)
_GATHER = _rng.integers(0, _BIG.size, 8000)
del _rng


def chunk(k: int = 0) -> float:
    """Wall time of one run of the reference computation; ``k`` picks which
    tuples of the pool it uses, so that successive runs touch new memory."""
    start = time.perf_counter()
    s = 0
    for i in range(2500):
        s += i * i % 7
    for j in range(2):
        picks = _PICKS[(k + j) % len(_PICKS)]
        a, b = Counter(picks), Counter(_PICKS[(k + j + 1) % len(_PICKS)] + picks[:75])
        s += sum(((a - b) + (b - a)).values())
    for _ in range(3):
        a, b = Counter(_ATOMS[:100]), Counter(_ATOMS[20:])
        s += sum(((a - b) + (b - a)).values())
    x = _ARRAY
    for _ in range(6):
        x = np.sort(np.sqrt(x * 1.0001 + 1.0))[::-1]
    s += _BIG[_GATHER].sum()
    return time.perf_counter() - start


class Clock:
    """Context manager that times its body, raw and scaled.

    After the ``with`` block: ``raw`` is the body's wall time, ``busy`` the
    part of it spent in sampling handlers, ``chunk_mean`` the mean chunk
    time and ``scaled`` the scaled time of the body.
    """

    def __enter__(self) -> "Clock":
        self._inside: list[tuple[float, float]] = []  # (start, duration) of handler chunks
        self._outside = [chunk()]
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = time.perf_counter()
        return self

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._inside.append((start, chunk(len(self._inside) + 1)))

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._outside.append(chunk())
        self.raw = end - self._start
        # A handler that started after ``end`` is not part of ``raw``.
        self.busy = sum(d for s, d in self._inside if s < end)
        self.chunk_mean = statistics.fmean([d for _, d in self._inside] + self._outside)
        self.scaled = scale(self.raw, self.busy, self.chunk_mean)
        return False


def scale(raw: float, busy: float, chunk_mean: float) -> float:
    """Seconds at the nominal speed of ``raw`` seconds, ``busy`` of which
    were spent sampling at a mean chunk time of ``chunk_mean``."""
    return (raw - busy) * CHUNK_S / chunk_mean
