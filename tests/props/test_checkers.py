"""The four theorem judges, on hand-built traces and memories with
known verdicts."""

from __future__ import annotations

import pytest

from repro.props.checkers import (
    BoundednessMonitor,
    StabilizationMonitor,
    progress_register,
    single_writer_verdict,
    write_optimality_verdict,
)
from tests.conftest import memory_with


def feed_samples(mon, rows):
    """rows: (time, pid, leader) triples."""
    for t, pid, leader in rows:
        mon.observe_sample(t, pid, leader)


class TestStabilizationMonitor:
    def test_clean_stabilization_with_churn(self):
        mon = StabilizationMonitor(horizon=100.0, margin=10.0)
        # Everyone flirts with p2 until t=30, then settles on p0.
        for t in range(0, 101, 10):
            for pid in (0, 1, 2):
                mon.observe_sample(float(t), pid, 2 if t < 30 else 0)
        verdict = mon.finish()
        assert verdict.holds
        assert verdict.leader == 0
        assert verdict.settle_time == 30.0
        assert verdict.churn == 3  # one output change per process
        assert verdict.leaders_seen == 2

    def test_disagreement_fails(self):
        mon = StabilizationMonitor(horizon=100.0)
        feed_samples(mon, [(t, 0, 0) for t in (0.0, 50.0, 100.0)])
        feed_samples(mon, [(t, 1, 1) for t in (0.0, 50.0, 100.0)])
        verdict = mon.finish()
        assert not verdict.holds
        assert "disagree" in verdict.detail

    def test_crashed_leader_fails(self):
        mon = StabilizationMonitor(horizon=100.0)
        feed_samples(mon, [(t, pid, 1) for t in (0.0, 50.0, 90.0) for pid in (0, 2)])
        mon.observe_crash(40.0, 1)
        verdict = mon.finish()
        assert not verdict.holds
        assert verdict.leader == 1  # the common-but-crashed output is reported

    def test_margin_rejects_last_minute_agreement(self):
        mon = StabilizationMonitor(horizon=100.0, margin=10.0)
        # p1 only joins the consensus at t=95, inside the margin.
        feed_samples(mon, [(t, 0, 0) for t in (0.0, 50.0, 95.0)])
        feed_samples(mon, [(0.0, 1, 1), (50.0, 1, 1), (95.0, 1, 0)])
        verdict = mon.finish()
        assert not verdict.holds
        assert mon.finish().settle_time is None

    def test_churn_by_crashed_process_excluded(self):
        mon = StabilizationMonitor(horizon=100.0)
        feed_samples(mon, [(t, 0, 0) for t in (0.0, 50.0, 90.0)])
        # p1 churns wildly, then crashes: its churn must not count.
        feed_samples(mon, [(0.0, 1, 1), (10.0, 1, 0), (20.0, 1, 1)])
        mon.observe_crash(30.0, 1)
        verdict = mon.finish()
        assert verdict.holds and verdict.leader == 0
        assert verdict.churn == 0
        assert verdict.churn_all == 2

    def test_no_correct_samples(self):
        mon = StabilizationMonitor(horizon=100.0)
        mon.observe_sample(0.0, 0, 0)
        mon.observe_crash(10.0, 0)
        assert not mon.finish().holds


class TestBoundednessMonitor:
    def test_only_leader_progress_may_grow(self):
        mon = BoundednessMonitor(horizon=100.0)
        for i in range(100):
            mon.observe_write(float(i), 0, "PROGRESS[0]", i)  # grows forever
            mon.observe_write(float(i), 1, "SUSPICIONS[1][0]", min(i, 10))  # plateaus
        verdict = mon.finish(leader=0)
        assert verdict.holds
        assert verdict.growing == ("PROGRESS[0]",)

    def test_growing_non_progress_register_is_offending(self):
        mon = BoundednessMonitor(horizon=100.0)
        for i in range(100):
            mon.observe_write(float(i), 1, "HB[1]", i)
        verdict = mon.finish(leader=0)
        assert not verdict.holds
        assert verdict.offending == ("HB[1]",)

    def test_single_late_record_is_not_growth(self):
        mon = BoundednessMonitor(horizon=100.0)
        mon.observe_write(10.0, 1, "SUSPICIONS[1][0]", 1)
        mon.observe_write(95.0, 1, "SUSPICIONS[1][0]", 2)  # lone late bump
        assert mon.finish(leader=0).holds

    def test_settle_time_excludes_contention_records(self):
        mon = BoundednessMonitor(horizon=100.0)
        # p1's PROGRESS advanced while contending (t < 90), then stopped.
        for i in range(90):
            mon.observe_write(float(i), 1, "PROGRESS[1]", i)
        for i in range(100):
            mon.observe_write(float(i), 0, "PROGRESS[0]", i)
        assert not mon.finish(leader=0).holds  # judged over the plain tail
        assert mon.finish(leader=0, settle_time=90.0).holds

    def test_booleans_never_grow(self):
        mon = BoundednessMonitor(horizon=100.0)
        for i in range(100):
            mon.observe_write(float(i), 0, "PROGRESS[0][1]", i % 2 == 0)
        assert mon.finish(leader=None).holds

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundednessMonitor(100.0, tail_fraction=0.0)
        with pytest.raises(ValueError):
            BoundednessMonitor(100.0, min_records=0)


class TestSingleWriterMonitor:
    """``single_writer_verdict``; the cases (and their ids) date from the
    online monitor it replaced, now fed through a hand-built memory."""

    def test_single_writer_single_register(self):
        writes = [(10.0, 1, "PROGRESS[1]", 1)]  # early contender
        writes += [(float(i), 0, "PROGRESS[0]", i) for i in range(100)]
        verdict = single_writer_verdict(memory_with(writes), horizon=100.0, tail=20.0, leader=0)
        assert verdict.holds
        assert verdict.tail_writers == (0,)
        assert verdict.tail_registers == (progress_register(0),)
        assert verdict.switch_time == 10.0

    def test_second_tail_writer_fails(self):
        writes = [(float(i), 0, "PROGRESS[0]", i) for i in range(100)]
        writes += [(95.0, 1, "SUSPICIONS[1][0]", 7)]
        verdict = single_writer_verdict(memory_with(writes), horizon=100.0, tail=20.0, leader=0)
        assert not verdict.holds
        assert verdict.tail_writers == (0, 1)

    def test_second_register_fails_even_with_one_writer(self):
        writes = []
        for i in range(100):
            writes += [(float(i), 0, "PROGRESS[0]", i), (float(i), 0, "STOP[0]", i)]
        memory = memory_with(writes)
        assert not single_writer_verdict(memory, horizon=100.0, tail=20.0, leader=0).holds

    def test_no_leader_fails(self):
        memory = memory_with([(float(i), 0, "PROGRESS[0]", i) for i in range(100)])
        assert not single_writer_verdict(memory, horizon=100.0, tail=20.0, leader=None).holds


class TestWriteOptimalityMonitor:
    """``write_optimality_verdict``, same inputs and expected verdicts."""

    def test_exactly_one_forever_writer(self):
        writes = [(float(i), 0, "PROGRESS[0]", i) for i in range(100)]
        writes += [(65.0, 1, "SUSPICIONS[1][0]", 1)]  # one window only
        verdict = write_optimality_verdict(
            memory_with(writes), horizon=100.0, window=10.0, count=4, leader=0
        )
        assert verdict.holds
        assert verdict.forever_writers == (0,)
        assert verdict.optimum == 1

    def test_everyone_writing_forever_fails(self):
        writes = [(float(i), pid, f"HB[{pid}]", i) for i in range(100) for pid in (0, 1, 2)]
        verdict = write_optimality_verdict(
            memory_with(writes), horizon=100.0, window=10.0, count=4, leader=0
        )
        assert not verdict.holds
        assert verdict.forever_writers == (0, 1, 2)

    def test_forever_writer_must_be_the_leader(self):
        memory = memory_with([(float(i), 1, "PROGRESS[1]", i) for i in range(100)])
        assert not write_optimality_verdict(memory, 100.0, window=10.0, count=4, leader=0).holds
        # count-only fallback
        assert write_optimality_verdict(memory, 100.0, window=10.0, count=4, leader=None).holds
