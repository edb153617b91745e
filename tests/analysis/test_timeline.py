"""Leadership timeline and anarchy metrics."""

from __future__ import annotations

from repro.analysis.timeline import build_timeline, render_timeline
from repro.core.algorithm1 import WriteEfficientOmega
from repro.core.runner import Run
from repro.sim.crash import CrashPlan
from repro.sim.tracing import RunTrace


def trace_from(samples):
    trace = RunTrace()
    for t, pid, leader in samples:
        trace.record_leader_sample(t, pid, leader)
    return trace


class TestIntervals:
    def test_single_stable_interval(self):
        samples = [(float(t), 0, 2) for t in range(0, 50, 10)]
        report = build_timeline(trace_from(samples))
        (iv,) = report.intervals_by_pid[0]
        assert (iv.leader, iv.start, iv.end) == (2, 0.0, 40.0)
        assert iv.duration == 40.0
        assert report.changes_by_pid[0] == 0

    def test_change_splits_intervals(self):
        samples = [(0.0, 0, 1), (10.0, 0, 1), (20.0, 0, 2), (30.0, 0, 2)]
        report = build_timeline(trace_from(samples))
        ivs = report.intervals_by_pid[0]
        assert [(iv.leader, iv.start, iv.end) for iv in ivs] == [(1, 0.0, 20.0), (2, 20.0, 30.0)]
        assert report.changes_by_pid[0] == 1


class TestAnarchy:
    def test_agreement_has_no_anarchy(self):
        samples = [(t, pid, 0) for t in (0.0, 10.0) for pid in (0, 1)]
        report = build_timeline(trace_from(samples))
        assert report.anarchy_times == []
        assert report.anarchy_intervals == []

    def test_disagreement_detected(self):
        samples = [(0.0, 0, 0), (0.0, 1, 1), (10.0, 0, 0), (10.0, 1, 0)]
        report = build_timeline(trace_from(samples))
        assert report.anarchy_times == [0.0]
        assert report.anarchy_intervals == [(0.0, 0.0)]

    def test_anarchy_interval_spans_consecutive_samples(self):
        samples = []
        for t in (0.0, 10.0, 20.0):
            samples += [(t, 0, 0), (t, 1, 1)]
        samples += [(30.0, 0, 0), (30.0, 1, 0)]
        report = build_timeline(trace_from(samples))
        assert report.anarchy_intervals == [(0.0, 20.0)]

    def test_faulty_opinions_excluded(self):
        plan = CrashPlan.single(3, 2, 5.0)
        samples = [(0.0, 0, 0), (0.0, 1, 0), (0.0, 2, 2)]
        report = build_timeline(trace_from(samples), crash_plan=plan)
        assert report.anarchy_times == []

    def test_no_anarchy_reports_no_interval(self):
        report = build_timeline(trace_from([(0.0, 0, 0)]))
        assert report.anarchy_intervals == []


class TestRender:
    def test_render_contains_lanes(self):
        samples = [(float(t), pid, pid % 2) for t in range(0, 30, 10) for pid in (0, 1)]
        out = render_timeline(build_timeline(trace_from(samples)), width=20)
        assert "p0 |" in out and "p1 |" in out

    def test_render_empty(self):
        assert "(no samples)" in render_timeline(build_timeline(RunTrace()))


class TestOnRealRun:
    def test_anarchy_ends_before_stabilization_margin(self):
        result = Run(WriteEfficientOmega, n=4, seed=42, horizon=2000.0).execute()
        report = build_timeline(result.trace, crash_plan=result.crash_plan)
        stab = result.stabilization(margin=200.0)
        assert stab.holds
        assert report.anarchy_intervals[-1][1] <= stab.settle_time

    def test_crash_shortens_lane(self):
        plan = CrashPlan.single(3, 1, 100.0)
        result = Run(WriteEfficientOmega, n=3, seed=1, horizon=400.0, crash_plan=plan).execute()
        report = build_timeline(result.trace, crash_plan=plan)
        lane_end = report.intervals_by_pid[1][-1].end
        assert lane_end <= 100.0
