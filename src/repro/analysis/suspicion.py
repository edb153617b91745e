"""Suspicion dynamics: the observable core of Lemma 2.

The convergence mechanism of both algorithms is entirely visible in the
``SUSPICIONS`` write stream: false suspicions accumulate (raising
timeouts) until timers out-wait the leader's write period, after which
the stream goes quiet.  These helpers extract that signal for the
chaos/ablation experiments and the examples.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.memory.memory import SharedMemory

#: Register-name prefix of the suspicion counters shared by Algorithm 1
#: and its variants (the ``SUSPICIONS`` matrix, or its nWnR vector).
SUSPICION_PREFIX = "SUSPICIONS"


def suspicion_writes(memory: SharedMemory) -> List[Tuple[float, int, str]]:
    """All ``(time, suspecting pid, register)`` suspicion writes."""
    return [
        (rec.time, rec.pid, rec.register)
        for rec in memory.write_log
        if rec.register.startswith(SUSPICION_PREFIX)
    ]


def cumulative_suspicions(
    memory: SharedMemory,
    horizon: float,
    bucket: float = 250.0,
) -> Tuple[List[float], List[float]]:
    """Cumulative suspicion-write counts sampled every ``bucket``.

    The series a healthy AWB run produces rises and then flattens; a
    run with AWB2 violated keeps rising (see the chaos example and the
    negative-scenario tests).
    """
    if bucket <= 0:
        raise ValueError("bucket must be positive")
    times = sorted(t for t, _, _ in suspicion_writes(memory))
    xs: List[float] = []
    ys: List[float] = []
    count = 0
    idx = 0
    t = 0.0
    while t <= horizon:
        while idx < len(times) and times[idx] < t:
            count += 1
            idx += 1
        xs.append(t)
        ys.append(float(count))
        t += bucket
    return xs, ys


__all__ = [
    "SUSPICION_PREFIX",
    "cumulative_suspicions",
    "suspicion_writes",
]
