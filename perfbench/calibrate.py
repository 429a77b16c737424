"""A fixed reference task that measures how fast the host runs right now.

On a shared host the same run can take 25% more or less wall time from
one minute to the next.  Every worker times this task around its scenario
run, and the orchestrator scales host times by ``REFERENCE_S / measured``:
host metrics are reported in time on a reference host, one on which the
task takes exactly ``REFERENCE_S``.  The task is half interpreted dict,
list and heap work and half compiled array sweeps, argmins and sorts, like
the simulator's hot paths: on a shared host a busy phase slows interpreted
code more than compiled loops, so a task of only one kind over- or
under-corrects a workload of the other kind.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time

import numpy as np

#: seconds the reference task takes on the reference host.
REFERENCE_S = 0.020


def _reference_task() -> float:
    # interpreted half: dict, list and heap work like the per-query paths
    rng = random.Random(20090817)
    table: dict[int, float] = {}
    heap: list[float] = []
    for i in range(12000):
        x = rng.random()
        table[i & 511] = table.get(i & 511, 0.0) + x
        heapq.heappush(heap, x)
        if len(heap) > 64:
            heapq.heappop(heap)
    # compiled half: array sweeps, argmin and sorts like the kernel and flush
    busy = np.random.default_rng(20090817).random(2048)
    cost = busy[::-1].copy()
    best = 0.0
    for _ in range(300):
        est = np.maximum(busy - 0.5, 0.0) + cost
        k = int(np.argmin(est))
        best += est[k]
        busy[k] += cost[k]
        busy = np.sort(busy)
    return sum(table.values()) + sum(heap) + best


def calibration_s(reps: int = 3) -> float:
    """Median wall seconds of *reps* runs of the reference task.

    One untimed run first, so lazy set-up inside numpy is not timed.
    """
    _reference_task()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _reference_task()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
