"""Leader-lease analysis on election traces.

A process *holds the lease* at time ``t`` when its own ``leader()``
output has been itself for the whole window ``[t - length, t]``.
During the anarchy period several processes may hold the lease
simultaneously (the paper is explicit that Omega gives no bound on
when anarchy ends); after stabilization + one lease length, at most one
process can -- which is what makes Omega-based leases useful and what
:func:`lease_intervals` lets experiments measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.sim.tracing import RunTrace


@dataclass
class LeaseReport:
    """Lease-holding structure extracted from one run."""

    length: float
    #: Per-pid list of maximal [start, end] intervals during which the
    #: pid held the lease.
    intervals_by_pid: Dict[int, List[Tuple[float, float]]] = field(default_factory=dict)
    #: Times (sample instants) at which two or more pids held the lease.
    overlap_times: List[float] = field(default_factory=list)

    def holders_at(self, t: float) -> List[int]:
        """Pids holding the lease at time ``t``."""
        return [
            pid
            for pid, spans in self.intervals_by_pid.items()
            if any(a <= t <= b for a, b in spans)
        ]


def lease_intervals(trace: RunTrace, length: float) -> LeaseReport:
    """Compute lease intervals from observer samples.

    A pid's *self-run* is a maximal span of consecutive samples where it
    output itself; it holds the lease over ``[start + length, end]`` of
    each self-run at least ``length`` long.
    """
    if length <= 0:
        raise ValueError("lease length must be positive")
    report = LeaseReport(length=length)
    by_pid = trace.leader_samples_by_pid()
    for pid, samples in by_pid.items():
        spans: List[Tuple[float, float]] = []
        run_start: float | None = None
        last_t: float | None = None
        for t, leader in samples:
            if leader == pid:
                if run_start is None:
                    run_start = t
                last_t = t
            else:
                if run_start is not None and last_t is not None and last_t - run_start >= length:
                    spans.append((run_start + length, last_t))
                run_start = None
        if run_start is not None and last_t is not None and last_t - run_start >= length:
            spans.append((run_start + length, last_t))
        if spans:
            report.intervals_by_pid[pid] = spans

    sample_times = trace.sample_times()
    for t in sample_times:
        if len(report.holders_at(t)) >= 2:
            report.overlap_times.append(t)
    return report


__all__ = ["LeaseReport", "lease_intervals"]
