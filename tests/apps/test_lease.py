"""Leader-lease analysis."""

from __future__ import annotations

import pytest

from repro.apps.lease import lease_intervals
from repro.core.algorithm1 import WriteEfficientOmega
from repro.core.runner import Run
from repro.sim.tracing import RunTrace


def trace_from(samples):
    trace = RunTrace()
    for t, pid, leader in samples:
        trace.record_leader_sample(t, pid, leader)
    return trace


class TestSyntheticTraces:
    def test_long_self_run_yields_interval(self):
        samples = [(float(t), 0, 0) for t in range(0, 101, 10)]
        report = lease_intervals(trace_from(samples), length=30.0)
        assert report.intervals_by_pid[0] == [(30.0, 100.0)]

    def test_short_self_run_yields_nothing(self):
        samples = [(0.0, 0, 0), (10.0, 0, 0), (20.0, 0, 1)]
        report = lease_intervals(trace_from(samples), length=30.0)
        assert 0 not in report.intervals_by_pid

    def test_overlap_detected(self):
        samples = []
        for t in range(0, 101, 10):
            samples.append((float(t), 0, 0))
            samples.append((float(t), 1, 1))
        report = lease_intervals(trace_from(samples), length=20.0)
        assert report.overlap_times  # both held the lease simultaneously

    def test_interrupted_run_splits_intervals(self):
        samples = [(float(t), 0, 0) for t in range(0, 50, 10)]
        samples.append((50.0, 0, 1))
        samples += [(float(t), 0, 0) for t in range(60, 121, 10)]
        report = lease_intervals(trace_from(samples), length=20.0)
        assert len(report.intervals_by_pid[0]) == 2

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            lease_intervals(RunTrace(), length=0.0)

    def test_holders_at(self):
        samples = [(float(t), 2, 2) for t in range(0, 101, 10)]
        report = lease_intervals(trace_from(samples), length=10.0)
        assert report.holders_at(50.0) == [2]
        assert report.holders_at(5.0) == []


class TestOnRealElection:
    def test_unique_lease_holder_after_stabilization(self):
        result = Run(WriteEfficientOmega, n=4, seed=120, horizon=2000.0).execute()
        report = lease_intervals(result.trace, length=100.0)
        stab = result.stabilization(margin=100.0)
        assert stab.holds
        # After stabilization + one lease length, exactly one holder.
        probe = stab.settle_time + 150.0
        holders = report.holders_at(probe) or report.holders_at(probe + 50.0)
        assert all(t <= stab.settle_time + 100.0 for t in report.overlap_times)
        assert holders == [stab.leader]
