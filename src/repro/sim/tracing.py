"""The run trace: the observer's leader samples, stored as changes.

A :class:`RunTrace` is the log of ``(time, pid, leader)`` rows the
observer writes as it samples every live process's ``leader()`` output
-- the one record Theorem 1's verdict, the timelines and the analysis
layer (:mod:`repro.analysis`) read.  The runner only produces it.
Other facts of a run are recorded once, where they are read: a timer's
``(tau, x, duration)`` history by its behaviour
(:mod:`repro.timers.awb`), crashes by the run's
:class:`~repro.sim.crash.CrashPlan`, register accesses by the memory's
logs.

Once a run has settled every sample repeats the previous one, so the
trace stores the rows run-length encoded:

* one ``array('d')`` of **tick** times (a tick is one observer pass);
* per tick, the sequence of sampled pids, the previous tick's own
  object when it is equal (the set changes only at crashes);
* per pid, its **change points** ``(tick, leader)``: its first sample
  and every sample whose leader differs from the one before it.

The log therefore grows with leader churn and with the number of
ticks, not with ``ticks x pids``.  :meth:`RunTrace.leader_samples`,
:meth:`~RunTrace.leader_samples_by_pid` and
:meth:`~RunTrace.sample_times` expand the rows on demand, exactly as
they were appended; the judges read :meth:`~RunTrace.leader_changes`
and never expand.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, Sequence, Tuple


class RunTrace:
    """Run-length log of observer leader samples.

    Two ways in, one representation.  :meth:`record_leader_sample`
    takes rows one at a time in any order; a row opens a new tick when
    its time differs from the current tick's or its pid was already
    sampled in it.  The runner's observer writes a whole pass at once
    instead: :meth:`open_tick` with the live pids, then
    :meth:`record_change` for each pid whose leader differs from the
    last one it recorded (the observer keeps that per-pid value), so a
    repeated sample costs the trace nothing.
    """

    __slots__ = ("_times", "_tick_pids", "_changes")

    def __init__(self) -> None:
        self._times = array("d")
        self._tick_pids: List[Sequence[int]] = []
        #: pid -> [(tick, leader)], keyed in order of first appearance.
        self._changes: Dict[int, List[Tuple[int, Any]]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def open_tick(self, time: float, pids: Sequence[int]) -> None:
        """Start one observer pass sampling ``pids`` (in that order) at
        ``time``.  The trace keeps ``pids``: the caller hands over a
        fresh sequence and never mutates it."""
        ticks = self._tick_pids
        if ticks and pids == ticks[-1]:
            pids = ticks[-1]
        ticks.append(pids)
        self._times.append(time)

    def record_change(self, pid: int, leader: Any) -> None:
        """Note that ``pid``'s sample in the open tick is ``leader``, a
        value other than its previous sample's (or its first sample)."""
        tick = len(self._tick_pids) - 1
        points = self._changes.get(pid)
        if points is None:
            self._changes[pid] = [(tick, leader)]
        else:
            points.append((tick, leader))

    def record_leader_sample(self, time: float, pid: int, leader: int) -> None:
        """Append one observer sample row."""
        times, ticks = self._times, self._tick_pids
        if not ticks or time != times[-1] or pid in ticks[-1]:
            times.append(time)
            ticks.append(())
        pids = (*ticks[-1], pid)
        if len(ticks) > 1 and pids == ticks[-2]:
            pids = ticks[-2]
        ticks[-1] = pids
        points = self._changes.get(pid)
        if points is None or points[-1][1] != leader:
            self.record_change(pid, leader)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def leader_changes(self) -> List[Tuple[float, int, Any]]:
        """Every change point as a ``(time, pid, leader)`` row, grouped by
        pid in order of first appearance, each pid's in time order.

        Feeding these to a per-pid fold such as
        :class:`~repro.props.checkers.StabilizationMonitor` gives the
        state the full rows give: a repeated sample changes nothing.
        """
        times = self._times
        return [
            (times[tick], pid, leader)
            for pid, points in self._changes.items()
            for tick, leader in points
        ]

    def leader_samples(self) -> List[Tuple[float, int, int]]:
        """All ``(time, pid, leader)`` observer samples, expanded.

        Rows come in append order, which for a simulation-produced
        trace is also non-decreasing time order.  A fresh list.
        """
        changed: Dict[int, List[Tuple[int, Any]]] = {}
        for pid, points in self._changes.items():
            for tick, leader in points:
                changed.setdefault(tick, []).append((pid, leader))
        leaders: Dict[int, Any] = {}
        rows: List[Tuple[float, int, int]] = []
        for tick, (time, pids) in enumerate(zip(self._times, self._tick_pids)):
            leaders.update(changed.get(tick, ()))
            rows.extend([(time, pid, leaders[pid]) for pid in pids])
        return rows

    def leader_samples_by_pid(self) -> Dict[int, List[Tuple[float, int]]]:
        """Per-process list of ``(time, leader)`` samples."""
        out: Dict[int, List[Tuple[float, int]]] = {}
        for t, pid, leader in self.leader_samples():
            out.setdefault(pid, []).append((t, leader))
        return out

    def sample_times(self) -> List[float]:
        """Distinct times at which leader samples were taken."""
        seen: List[float] = []
        last = None
        for t, pids in zip(self._times, self._tick_pids):
            if pids and t != last:
                seen.append(t)
                last = t
        return seen


__all__ = ["RunTrace"]
