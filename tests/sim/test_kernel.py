"""Simulator kernel: clock, scheduling rules, run-loop stop conditions."""

from __future__ import annotations

import pytest

from repro.sim.events import EventLane
from repro.sim.kernel import SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_after(-1.0, lambda: None)

    def test_callbacks_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(2.0, lambda: fired.append("b"))
        sim.schedule_at(1.0, lambda: fired.append("a"))
        sim.schedule_at(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(4.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.5]

    def test_schedule_from_callback(self):
        sim = Simulator()
        fired = []

        def first():
            sim.schedule_after(1.0, lambda: fired.append(sim.now))

        sim.schedule_at(1.0, first)
        sim.run()
        assert fired == [2.0]

    def test_plain_scheduling_returns_no_handle(self):
        sim = Simulator()
        assert sim.schedule_at(1.0, lambda: None) is None
        assert sim.schedule_after(1.0, lambda: None) is None

    def test_cancelled_event_skipped(self):
        sim = Simulator()
        fired = []
        lane = EventLane("x", None)
        lane.cancel(sim.schedule_lane_after(lane, 1.0, lambda: fired.append("x")))
        sim.run()
        assert fired == []
        assert sim.events_skipped == 1

    def test_cancellable_after_delay(self):
        sim = Simulator()
        fired = []
        lane = EventLane("x", None)
        keep = sim.schedule_lane_after(lane, 1.0, lambda: fired.append("keep"))
        drop = sim.schedule_lane_after(lane, 2.0, lambda: fired.append("drop"))
        assert lane.cancel(drop)
        sim.run()
        assert fired == ["keep"]
        assert sim.now == 2.0  # the cancelled entry still advanced the clock
        assert not lane.cancel(keep)  # fired tokens are stale

    def test_cancellable_rejects_past_and_negative(self):
        sim = Simulator()
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        # The lane schedules relative to now, so the past is a negative delay.
        with pytest.raises(SimulationError):
            sim.schedule_lane_after(EventLane("x", None), -1.0, lambda: None)


class TestRunLoop:
    def test_until_clamps_clock_and_keeps_event(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(10.0, lambda: fired.append("late"))
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert fired == []
        sim.run(until=20.0)
        assert fired == ["late"]

    def test_until_in_the_past_is_rejected(self):
        # The clock never runs backwards: a past horizon used to rewind
        # ``now`` and let an event scheduled after it fire "early".
        sim = Simulator()
        sim.run(until=15.0)
        with pytest.raises(SimulationError, match="before current time 15.0"):
            sim.run(until=5.0)
        assert sim.now == 15.0
        with pytest.raises(SimulationError):
            sim.schedule_at(6.0, lambda: None)

    def test_until_now_is_a_no_op(self):
        sim = Simulator()
        sim.schedule_at(20.0, lambda: None)
        sim.run(until=15.0)
        assert sim.run(until=15.0) == 15.0
        assert sim.events_fired == 0 and sim.pending() == 1

    def test_nan_until_is_rejected(self):
        # NaN compares false against every event time, so it used to mean
        # "no horizon" silently.
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        with pytest.raises(ValueError, match="NaN"):
            sim.run(until=float("nan"))
        assert sim.events_fired == 0 and sim.now == 0.0

    def test_until_beyond_queue_advances_clock(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_max_events(self):
        sim = Simulator()
        for t in range(10):
            sim.schedule_at(float(t), lambda: None)
        sim.run(max_events=3)
        assert sim.events_fired == 3

    @pytest.mark.parametrize("budget", [0, -3])
    def test_max_events_below_one_is_rejected(self, budget):
        # A budget of 0 (or less) used to fire one event anyway.
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        with pytest.raises(ValueError, match=f"got {budget}"):
            sim.run(max_events=budget)
        assert sim.events_fired == 0 and sim.pending() == 1
        sim.run()  # the refused call left the simulator usable
        assert sim.events_fired == 1

    def test_max_events_budget_is_per_invocation(self):
        # Regression: the budget used to be checked against the
        # *cumulative* events_fired counter, so a second run() on the
        # same simulator stopped immediately.
        sim = Simulator()
        for t in range(10):
            sim.schedule_at(float(t), lambda: None)
        sim.run(max_events=3)
        sim.run(max_events=3)
        assert sim.events_fired == 6
        sim.run(max_events=None)
        assert sim.events_fired == 10

    def test_events_fired_is_live_during_the_run(self):
        # Every singleton event is its own batch, so a callback reads
        # the count of the events fired before it.
        sim = Simulator()
        observed = []
        for t in range(10):
            sim.schedule_at(float(t), lambda: observed.append(sim.events_fired))
        sim.run(max_events=4)
        assert observed == [0, 1, 2, 3] and sim.events_fired == 4

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def reenter():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule_at(1.0, reenter)
        sim.run()

    def test_event_kind_counting(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None, kind="step")
        sim.schedule_at(2.0, lambda: None, kind="step")
        sim.schedule_at(3.0, lambda: None, kind="timer")
        sim.run()
        assert sim.fired_by_kind == {"step": 2, "timer": 1}

    def test_trace_events_disabled_skips_kind_accounting(self):
        sim = Simulator(trace_events=False)
        assert sim.trace_events is False
        sim.schedule_at(1.0, lambda: None, kind="step")
        sim.schedule_at(2.0, lambda: None, kind="timer")
        sim.run()
        assert sim.events_fired == 2  # totals still maintained
        assert sim.fired_by_kind == {}  # per-kind work skipped entirely

    def test_trace_events_default_on(self):
        assert Simulator().trace_events is True

    def test_pending_counts_queue(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        assert sim.pending() == 2
