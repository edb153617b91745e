"""Equal-timestamp batch dispatch: ordering, cancellation, mid-batch stops.

The run loop drains all events sharing one virtual instant as a single
batch (heap entry + collision bucket).  These tests pin the contracts
that batching must preserve: exact FIFO within the batch, lazy
cancellation taking effect inside the same batch, and exact restoration
of the undrained remainder when ``stop()`` / ``max_events`` /
``stop_when`` end the run mid-batch.
"""

from __future__ import annotations

import pytest

from repro.sim.events import EventLane
from repro.sim.kernel import SimulationError, Simulator


class TestBatchOrdering:
    def test_fifo_within_equal_timestamp_batch(self):
        sim = Simulator()
        fired = []
        for i in range(8):
            sim.schedule_at(5.0, lambda i=i: fired.append(i))
        sim.run()
        assert fired == list(range(8))

    def test_batches_interleaved_with_singletons(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(2.0, lambda: fired.append("b0"))
        sim.schedule_at(1.0, lambda: fired.append("a"))
        sim.schedule_at(2.0, lambda: fired.append("b1"))
        sim.schedule_at(3.0, lambda: fired.append("c"))
        sim.schedule_at(2.0, lambda: fired.append("b2"))
        sim.run()
        assert fired == ["a", "b0", "b1", "b2", "c"]

    def test_same_instant_events_scheduled_mid_batch_join_the_batch(self):
        # An event that schedules another event at the *current* instant
        # must see it fire within the same virtual time, after the
        # already-queued batch members.
        sim = Simulator()
        fired = []

        def head() -> None:
            fired.append("head")
            sim.schedule_at(5.0, lambda: fired.append("straggler"))

        sim.schedule_at(5.0, head)
        sim.schedule_at(5.0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["head", "second", "straggler"]

    def test_now_is_stable_across_the_batch(self):
        sim = Simulator()
        seen = []
        for _ in range(4):
            sim.schedule_at(7.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.5] * 4


class TestSameBatchCancellation:
    def test_earlier_event_cancels_later_same_batch_lane_token(self):
        sim = Simulator()
        fired = []
        lane = EventLane("test-lane", None)
        tokens = []

        def assassin() -> None:
            fired.append("assassin")
            lane.cancel(tokens[0])

        sim.schedule_at(2.0, assassin)
        tokens.append(sim.schedule_lane_after(lane, 2.0, lambda: fired.append("victim")))
        sim.schedule_at(2.0, lambda: fired.append("bystander"))
        sim.run()
        assert fired == ["assassin", "bystander"]
        assert sim.events_skipped == 1

    def test_cancelled_before_run_is_skipped_in_batch(self):
        sim = Simulator()
        fired = []
        lane = EventLane("test-lane", None)
        sim.schedule_at(1.0, lambda: fired.append("a"))
        token = sim.schedule_lane_after(lane, 1.0, lambda: fired.append("x"))
        sim.schedule_at(1.0, lambda: fired.append("b"))
        lane.cancel(token)
        sim.run()
        assert fired == ["a", "b"]
        assert (sim.events_fired, sim.events_skipped) == (2, 1)


class TestMidBatchStops:
    def test_stop_mid_batch_restores_remainder_in_order(self):
        sim = Simulator()
        fired = []

        def stopper() -> None:
            fired.append("stopper")
            sim.stop()

        sim.schedule_at(4.0, stopper)
        for i in range(3):
            sim.schedule_at(4.0, lambda i=i: fired.append(i))
        sim.run()
        assert fired == ["stopper"]
        assert sim.pending() == 3
        # Resuming drains the restored remainder in the original order.
        sim.run()
        assert fired == ["stopper", 0, 1, 2]

    def test_max_events_mid_batch_is_exact(self):
        sim = Simulator()
        fired = []
        for i in range(6):
            sim.schedule_at(1.0, lambda i=i: fired.append(i))
        sim.run(max_events=4)
        assert fired == [0, 1, 2, 3]
        sim.run()
        assert fired == list(range(6))

    def test_max_events_budget_is_per_invocation(self):
        sim = Simulator()
        for i in range(6):
            sim.schedule_at(1.0, lambda: None)
        sim.run(max_events=4)
        sim.run(max_events=4)
        assert sim.events_fired == 6

    def test_stop_when_sees_live_counters_mid_batch(self):
        sim = Simulator()
        observed = []
        for _ in range(5):
            sim.schedule_at(1.0, lambda: None)
        sim.run(stop_when=lambda: (observed.append(sim.events_fired), False)[1])
        assert observed == [1, 2, 3, 4, 5]

    def test_stop_when_mid_batch_restores_remainder(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule_at(1.0, lambda i=i: fired.append(i))
        sim.run(stop_when=lambda: sim.events_fired >= 2)
        assert fired == [0, 1]
        sim.run()
        assert fired == list(range(5))

    def test_post_stop_schedule_at_pinned_instant_keeps_order(self):
        # After a mid-batch stop the instant is pinned heap-direct;
        # events scheduled at it between runs must still interleave in
        # exact schedule order with the restored remainder.
        sim = Simulator()
        fired = []

        def stopper() -> None:
            fired.append("stopper")
            sim.stop()

        sim.schedule_at(4.0, stopper)
        sim.schedule_at(4.0, lambda: fired.append("restored"))
        sim.run()
        sim.schedule_at(4.0, lambda: fired.append("late"))
        sim.run()
        assert fired == ["stopper", "restored", "late"]

    def test_counters_synced_after_mid_batch_stop(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule_at(1.0, lambda: None)
        sim.run(max_events=2)
        assert sim.events_fired == 2
        assert sim.pending() == 2


class TestSchedulingGuards:
    def test_nan_time_rejected_on_every_scheduler(self):
        sim = Simulator()
        nan = float("nan")
        lane = EventLane("guard-lane", None)
        with pytest.raises(ValueError):
            sim.schedule_at(nan, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_after(nan, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_lane_after(lane, nan, lambda: None)

    def test_past_and_negative_times_rejected(self):
        sim = Simulator()
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        assert sim.now == 5.0
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_after(-1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_lane_after(EventLane("g", None), -1.0, lambda: None)

    def test_batch_contract_for_plain_callbacks(self):
        # Plain callbacks observe events_fired as of the start of their
        # batch (the documented batch-visible contract).
        sim = Simulator()
        seen = []
        for _ in range(3):
            sim.schedule_at(1.0, lambda: seen.append(sim.events_fired))
        sim.run()
        assert seen == [0, 0, 0]
        assert sim.events_fired == 3


class TestEventLane:
    def test_fire_consumes_payload_via_consume_fn(self):
        sim = Simulator()
        got = []
        lane = EventLane("msg", got.append)
        sim.schedule_lane_after(lane, 1.0, "payload")
        sim.run()
        assert got == ["payload"]

    def test_token_is_stale_after_fire(self):
        sim = Simulator()
        lane = EventLane("msg", lambda p: None)
        token = sim.schedule_lane_after(lane, 1.0, "p")
        assert lane.live(token)
        sim.run()
        assert not lane.live(token)
        assert not lane.cancel(token)

    def test_cancel_is_one_shot(self):
        sim = Simulator()
        lane = EventLane("msg", lambda p: None)
        token = sim.schedule_lane_after(lane, 1.0, "p")
        assert lane.cancel(token)
        assert not lane.cancel(token)
        sim.run()
        assert sim.events_fired == 0 and sim.events_skipped == 1

    def test_slot_reuse_does_not_resurrect_old_token(self):
        sim = Simulator()
        fired = []
        lane = EventLane("msg", fired.append, capacity=1)
        old = sim.schedule_lane_after(lane, 1.0, "old")
        lane.cancel(old)
        sim.schedule_lane_after(lane, 2.0, "new")  # reuses the slot
        assert not lane.live(old)
        sim.run()
        assert fired == ["new"]

    def test_columns_double_under_burst(self):
        sim = Simulator()
        fired = []
        lane = EventLane("msg", fired.append, capacity=2)
        for i in range(20):
            sim.schedule_lane_after(lane, 1.0 + i, i)
        sim.run()
        assert fired == list(range(20))

    def test_consumer_may_reschedule_immediately(self):
        # The slot is freed before consume runs, so a consumer can
        # re-arm through the same lane at once (the timer pattern).
        sim = Simulator()
        count = [0]
        lane = EventLane("timer", None, capacity=1)

        def tick() -> None:
            count[0] += 1
            if count[0] < 5:
                sim.schedule_lane_after(lane, 1.0, tick)

        sim.schedule_lane_after(lane, 1.0, tick)
        sim.run()
        assert count[0] == 5

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventLane("bad", None, capacity=0)
