"""Interpreter-speed calibration for the benchmark's time metrics.

On a shared VM the speed of pure-Python code drifts by up to a factor of 2
over seconds to minutes, and CPU time drifts with it, so raw times of runs
made a few minutes apart are not comparable.  A calibration chunk is a
fixed workload that does not depend on heckekit: sparse dict-of-int
polynomial products, like heckekit's Laurent arithmetic.  It allocates no
object the cyclic garbage collector tracks, so the heap left by the jobs
does not change its work, and it is timed in CPU time of its own thread.

The worker runs a ``Sampler`` thread that times one chunk every
``PERIOD_S`` while the jobs run.  ``scaled`` converts a measured interval to
seconds at the reference speed, at which one chunk takes ``REFERENCE_S``,
using the median chunk time over the interval.  A change to heckekit moves
the interval but not the chunks, so it still shows in full.

The jobs move less with the drift than the chunk does, because the chunk
runs from the CPU caches while the jobs also wait on memory: the B4
c-basis job, with a 75 MB heap, slowed 1.6-fold when the chunk slowed
1.7-fold.  Scaling by the full speed ratio over-corrects such jobs, so
``scaled`` uses its square root (``SENSITIVITY``).  On ten runs per workload
at the seed commit, the interquartile range of wall time over its median
was 0.11-0.23 unscaled, 0.02-0.16 fully scaled and 0.06-0.07 with the
square root; two later sets of ten gave 0.06-0.25, 0.06-0.13 and
0.05-0.10 (perfbench/README.md).
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

REFERENCE_S = 0.002
SENSITIVITY = 0.5
PERIOD_S = 0.2
_ROUNDS = 8
_A = tuple((e, 7 * e + 1) for e in range(-20, 20))
_B = tuple((e, 3 - e) for e in range(-15, 25))


def chunk() -> float:
    """CPU seconds of the calling thread for one fixed calibration workload."""
    out: dict[int, int] = {}
    start = time.thread_time()
    for _ in range(_ROUNDS):
        out.clear()
        for e1, c1 in _A:
            for e2, c2 in _B:
                e = e1 + e2
                c = out.get(e, 0) + c1 * c2
                if c:
                    out[e] = c
                elif e in out:
                    del out[e]
    return time.thread_time() - start


def calibrate(n: int = 9) -> float:
    """Median time of n chunks run now."""
    return statistics.median(chunk() for _ in range(n))


def scaled(seconds: float, calibration_s: float) -> float:
    """seconds scaled to the reference speed by the square root of the speed
    ratio, given the median chunk time over them."""
    return seconds * (REFERENCE_S / calibration_s) ** SENSITIVITY


class Sampler:
    """Background thread that times one chunk every PERIOD_S seconds."""

    RECENT = 5  # samples before an interval that also count for it

    def __init__(self):
        self._samples: list[tuple[float, float]] = []  # (perf_counter, chunk seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self.add(chunk())

    def add(self, chunk_s: float) -> None:
        self._samples.append((time.perf_counter(), chunk_s))

    def start(self) -> None:
        for _ in range(self.RECENT):
            self.add(chunk())
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def median_since(self, start: float) -> float:
        """Median chunk time since start, with the RECENT samples before it."""
        samples = self._samples[:]
        first = max(0, bisect.bisect_left(samples, (start,)) - self.RECENT)
        return statistics.median(c for _, c in samples[first:])
