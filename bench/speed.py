"""Host speed, sampled before, during and after every timed step.

The speed of a shared host can drift by tens of percent over a few seconds
to minutes: on a shared 2-core Intel Xeon host the same K apply read 0.17 s
in one run and 0.26 s in the next. A short fixed kernel run next to the
work drifts with it: a step's time divided by the kernel's mean time stays
steady where the raw time does not (README.md gives the measurements). For
steps that last seconds the kernel also runs during the step, from an
interval timer, and the time it takes there is taken off the step's time.
"""

from __future__ import annotations

import heapq
import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.05  # interval of the in-step samples
ENDPOINT_RUNS = 3  # kernel runs just before and just after a step
_LONG = np.linspace(0.0, 1.0, 1024)
_SHORT = np.array([0.3, 0.4, 0.5])
_POINTS = np.linspace(0.0, 1.0, 3 * 2048).reshape(2048, 3)


def kernel() -> float:
    """Seconds for a fixed ~0.8 ms mix of the kinds of work the package does.

    Interpreter arithmetic, numpy on 1024-long and on 3-long arrays, row
    operations on a (2048, 3) array like those of K at N = 2048, and heap
    traffic on small tuples. No single kind tracked the host's slowdowns on
    every workload: interpreter arithmetic followed K applies but not near
    `eval_S` batches, numpy on 3-long arrays the reverse. Weighting the
    3-long part double steadied near batches and unsteadied k-convergence,
    so no part dominates.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(1000):
        acc += i * i
    y = _LONG
    for _ in range(15):
        y = np.sqrt(y * y + 1.0) - 0.5 * y
    v = _SHORT
    for _ in range(15):
        r = np.asarray(v, dtype=float)
        n = np.linalg.norm(r)
        v = r / n + 0.1 * r * (r @ r) / n**3
    for t in (0, 1024):
        r = _POINTS - _POINTS[t]
        r /= (np.linalg.norm(r, axis=1) + 1.0)[:, None]
    heap = []
    for i in range(150):
        heapq.heappush(heap, (-(i * 7919 % 1000), i, (i, acc)))
    while heap:
        heapq.heappop(heap)
    return perf_counter() - t0


def timed(call):
    """Run call; return its value, its seconds net of in-step samples, and the mean kernel time.

    An exception from call propagates after the timer is stopped.
    """
    samples = [kernel() for _ in range(ENDPOINT_RUNS)]
    stolen = 0.0

    def tick(signum, frame):
        nonlocal stolen
        t = perf_counter()
        samples.append(kernel())
        stolen += perf_counter() - t

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    t0 = perf_counter()
    try:
        value = call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        seconds = perf_counter() - t0 - stolen
        signal.signal(signal.SIGALRM, previous)
    samples.extend(kernel() for _ in range(ENDPOINT_RUNS))
    return value, seconds, statistics.fmean(samples)
