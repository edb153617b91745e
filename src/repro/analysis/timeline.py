"""Leadership timelines and anarchy metrics.

The paper is explicit that "several leaders can coexist during an
arbitrarily long period of time, and there is no way for the processes
to learn when this anarchy period is over".  This module quantifies
that period on a run trace:

* the per-process sequence of *leadership intervals* (who each process
  followed, when);
* the *anarchy intervals* -- sample instants where live processes
  disagree on the leader;
* churn counters -- how many times each process changed its mind.

Used by the examples, the ablation benches, and as a debugging lens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sim.crash import CrashPlan
from repro.sim.tracing import RunTrace


@dataclass(frozen=True, slots=True)
class LeadershipInterval:
    """One maximal span during which a process followed one leader."""

    pid: int
    leader: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Length of the span."""
        return self.end - self.start


@dataclass
class TimelineReport:
    """Leadership structure of one run."""

    #: Per-pid leadership intervals, in time order.
    intervals_by_pid: Dict[int, List[LeadershipInterval]] = field(default_factory=dict)
    #: Sample instants at which live correct processes disagreed.
    anarchy_times: List[float] = field(default_factory=list)
    #: Maximal [start, end] spans of consecutive disagreeing samples.
    anarchy_intervals: List[Tuple[float, float]] = field(default_factory=list)
    #: Number of leader changes each process went through.
    changes_by_pid: Dict[int, int] = field(default_factory=dict)


def build_timeline(trace: RunTrace, crash_plan: Optional[CrashPlan] = None) -> TimelineReport:
    """Extract the leadership timeline from observer samples.

    When ``crash_plan`` is given, anarchy is evaluated over *correct*
    processes only (a faulty process's pre-crash opinion does not count
    against agreement, matching the Eventual Leadership definition).
    """
    report = TimelineReport()
    by_pid = trace.leader_samples_by_pid()

    for pid, samples in sorted(by_pid.items()):
        intervals: List[LeadershipInterval] = []
        changes = 0
        cur_leader: Optional[int] = None
        cur_start = 0.0
        last_t = 0.0
        for t, leader in samples:
            if cur_leader is None:
                cur_leader, cur_start = leader, t
            elif leader != cur_leader:
                intervals.append(LeadershipInterval(pid, cur_leader, cur_start, t))
                changes += 1
                cur_leader, cur_start = leader, t
            last_t = t
        if cur_leader is not None:
            intervals.append(LeadershipInterval(pid, cur_leader, cur_start, last_t))
        report.intervals_by_pid[pid] = intervals
        report.changes_by_pid[pid] = changes

    # Anarchy: group samples by time, compare live (correct) opinions.
    opinions: Dict[float, Dict[int, int]] = {}
    for t, pid, leader in trace.leader_samples():
        if crash_plan is not None and not crash_plan.is_correct(pid):
            continue
        opinions.setdefault(t, {})[pid] = leader
    anarchy_flags: List[Tuple[float, bool]] = []
    for t in sorted(opinions):
        values = set(opinions[t].values())
        anarchy_flags.append((t, len(values) > 1))

    report.anarchy_times = [t for t, bad in anarchy_flags if bad]
    start: Optional[float] = None
    prev_t: Optional[float] = None
    for t, bad in anarchy_flags:
        if bad and start is None:
            start = t
        elif not bad and start is not None:
            assert prev_t is not None
            report.anarchy_intervals.append((start, prev_t))
            start = None
        prev_t = t
    if start is not None and prev_t is not None:
        report.anarchy_intervals.append((start, prev_t))
    return report


def render_timeline(report: TimelineReport, width: int = 60) -> str:
    """ASCII rendering: one lane per process, a letter per leader.

    >>> # lanes look like: p0 |000011111111...|
    """
    if not report.intervals_by_pid:
        return "(no samples)"
    t_min = min(iv.start for ivs in report.intervals_by_pid.values() for iv in ivs)
    t_max = max(iv.end for ivs in report.intervals_by_pid.values() for iv in ivs)
    span = max(t_max - t_min, 1e-9)
    lines = []
    for pid, intervals in sorted(report.intervals_by_pid.items()):
        lane = ["."] * width
        for iv in intervals:
            a = int((iv.start - t_min) / span * (width - 1))
            b = int((iv.end - t_min) / span * (width - 1))
            glyph = str(iv.leader % 10)
            for idx in range(a, b + 1):
                lane[idx] = glyph
        lines.append(f"p{pid} |{''.join(lane)}|")
    lines.append(f"    t={t_min:.0f} .. {t_max:.0f}; digit = followed leader, '.' = crashed/no sample")
    return "\n".join(lines)


__all__ = ["LeadershipInterval", "TimelineReport", "build_timeline", "render_timeline"]
