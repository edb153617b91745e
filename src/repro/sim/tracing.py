"""The run trace: the observer's leader samples.

A :class:`RunTrace` is the append-only log of ``(time, pid, leader)``
rows the observer writes as it samples every live process's
``leader()`` output -- the one record Theorem 1's verdict, the
timelines and the analysis layer (:mod:`repro.analysis`) read.  The
runner only produces it.  Other facts of a run are recorded once, where
they are read: a timer's ``(tau, x, duration)`` history by its
behaviour (:mod:`repro.timers.awb`), crashes by the run's
:class:`~repro.sim.crash.CrashPlan`, register accesses by the memory's
logs.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


class RunTrace:
    """Append-only, queryable log of observer leader samples."""

    __slots__ = ("_samples",)

    def __init__(self) -> None:
        self._samples: List[Tuple[float, int, int]] = []

    def record_leader_sample(self, time: float, pid: int, leader: int) -> None:
        """Append one observer sample (one tuple, no dict)."""
        self._samples.append((time, pid, leader))

    def leader_samples(self) -> Sequence[Tuple[float, int, int]]:
        """All ``(time, pid, leader)`` observer samples.

        Returns the internal row list -- treat it as **read-only**.
        Rows are in append order, which for a simulation-produced trace
        is also non-decreasing time order.
        """
        return self._samples

    def leader_samples_by_pid(self) -> Dict[int, List[Tuple[float, int]]]:
        """Per-process list of ``(time, leader)`` samples."""
        out: Dict[int, List[Tuple[float, int]]] = {}
        for t, pid, leader in self._samples:
            out.setdefault(pid, []).append((t, leader))
        return out

    def sample_times(self) -> List[float]:
        """Distinct times at which leader samples were taken."""
        seen: List[float] = []
        last = None
        for t, _, _ in self._samples:
            if t != last:
                seen.append(t)
                last = t
        return seen


__all__ = ["RunTrace"]
