"""The Omega property checks on synthetic traces."""

from __future__ import annotations

from repro.analysis.omega_props import check_validity
from repro.props.checkers import leadership_verdict
from repro.sim.crash import CrashPlan
from repro.sim.tracing import RunTrace


def trace_from(samples):
    """Build a trace from (time, pid, leader) triples."""
    trace = RunTrace()
    for t, pid, leader in samples:
        trace.record_leader_sample(t, pid, leader)
    return trace


class TestValidity:
    def test_in_range_ok(self):
        trace = trace_from([(0.0, 0, 1), (0.0, 1, 0)])
        assert check_validity(trace, n=2)

    def test_out_of_range_fails(self):
        trace = trace_from([(0.0, 0, 5)])
        assert not check_validity(trace, n=2)


class TestEventualLeadership:
    def test_stable_agreement(self):
        samples = [(t, pid, 1) for t in (0.0, 10.0, 20.0, 30.0) for pid in (0, 1)]
        report = leadership_verdict(trace_from(samples), CrashPlan.none(2), horizon=30.0)
        assert report.holds
        assert report.leader == 1
        assert report.settle_time == 0.0

    def test_late_agreement_records_settle_time(self):
        samples = [
            (0.0, 0, 0), (0.0, 1, 1),
            (10.0, 0, 1), (10.0, 1, 1),
            (20.0, 0, 1), (20.0, 1, 1),
            (30.0, 0, 1), (30.0, 1, 1),
        ]
        report = leadership_verdict(trace_from(samples), CrashPlan.none(2), horizon=30.0)
        assert report.holds
        assert report.settle_time == 10.0  # first sample where pid 0 holds the final value

    def test_disagreement_not_stabilized(self):
        samples = [(t, 0, 0) for t in (0.0, 10.0)] + [(t, 1, 1) for t in (0.0, 10.0)]
        report = leadership_verdict(trace_from(samples), CrashPlan.none(2), horizon=10.0)
        assert not report.holds
        assert report.leader is None

    def test_faulty_final_leader_rejected(self):
        plan = CrashPlan.single(3, 2, 5.0)
        samples = [(t, pid, 2) for t in (0.0, 10.0, 20.0) for pid in (0, 1)]
        report = leadership_verdict(trace_from(samples), plan, horizon=20.0)
        assert not report.holds
        assert not report.leader_correct

    def test_crashed_process_samples_ignored(self):
        plan = CrashPlan.single(3, 2, 5.0)
        samples = [(t, pid, 0) for t in (0.0, 10.0, 20.0) for pid in (0, 1)]
        samples.append((0.0, 2, 1))  # the faulty process disagreed early on
        report = leadership_verdict(trace_from(samples), plan, horizon=20.0)
        assert report.holds
        assert report.leader == 0

    def test_agreement_only_at_last_sample_rejected(self):
        samples = [
            (0.0, 0, 0), (0.0, 1, 1),
            (10.0, 0, 0), (10.0, 1, 1),
            (20.0, 0, 1), (20.0, 1, 1),
        ]
        report = leadership_verdict(trace_from(samples), CrashPlan.none(2), horizon=20.0)
        assert not report.holds

    def test_margin_tightens_verdict(self):
        samples = [
            (0.0, 0, 0), (0.0, 1, 1),
            (10.0, 0, 1), (10.0, 1, 1),
            (20.0, 0, 1), (20.0, 1, 1),
            (30.0, 0, 1), (30.0, 1, 1),
        ]
        trace = trace_from(samples)
        plan = CrashPlan.none(2)
        assert leadership_verdict(trace, plan, horizon=30.0, margin=15.0).holds
        assert not leadership_verdict(trace, plan, horizon=30.0, margin=25.0).holds

    def test_empty_trace_not_stabilized(self):
        report = leadership_verdict(RunTrace(), CrashPlan.none(2), horizon=10.0)
        assert not report.holds
