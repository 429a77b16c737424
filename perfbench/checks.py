"""Correctness checks every benchmark run applies to the program's outputs.

Each check returns a list of human-readable problems; an empty list means
the output passed.  Any problem fails the run.
"""

from __future__ import annotations

import hashlib

import numpy as np


def conservation_problems(
    offered: int,
    completed: int,
    dropped: int,
    shed: int,
    n_arrivals: int,
    latencies: np.ndarray,
) -> list[str]:
    """offered = completed + dropped + shed = arrivals in the stimulus.

    Also ties the counts to the per-query latency column: one entry per
    arrival, NaN exactly for the dropped and shed queries.
    """
    problems = []
    if offered != completed + dropped + shed:
        problems.append(
            f"offered {offered} != completed {completed} + dropped {dropped}"
            f" + shed {shed}"
        )
    if offered != n_arrivals:
        problems.append(f"offered {offered} != {n_arrivals} stimulus arrivals")
    if len(latencies) != n_arrivals:
        problems.append(
            f"{len(latencies)} latencies for {n_arrivals} stimulus arrivals"
        )
    finished = int(np.count_nonzero(~np.isnan(latencies)))
    if finished != completed:
        problems.append(f"{finished} finite latencies != completed {completed}")
    if finished and float(np.nanmin(latencies)) < 0.0:
        problems.append("negative simulated latency")
    return problems


def bit_mismatch(name: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    """Problems unless *got* and *want* hold the same float64 bit patterns."""
    got = np.ascontiguousarray(got, dtype=np.float64)
    want = np.ascontiguousarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != oracle {want.shape}"]
    differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    if differ.size == 0:
        return []
    i = int(differ[0])
    return [
        f"{name}: {differ.size} of {got.size} values differ from the oracle;"
        f" first at query {i}: {got[i]!r} != {want[i]!r}"
    ]


def digest(latencies: np.ndarray) -> str:
    """Short digest of a latency column's exact bits."""
    data = np.ascontiguousarray(latencies, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]
