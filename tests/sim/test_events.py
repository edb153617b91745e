"""The event queue as the kernel drives it: ordering, stability, lanes.

The queue is storage only -- the fused schedulers of ``Simulator`` file
entries and its run loop drains them -- so every test here goes through
``schedule_at`` / ``schedule_after`` / ``schedule_lane_after`` and reads
the result off the firing order or the queued entry tuples
``(time, seq, kind_id, pid, callback, token)``.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.events import EventLane, EventQueue, intern_kind, kind_name
from repro.sim.kernel import Simulator

MODES = ("at", "after", "lane", "lane-cancelled")


def queued(sim: Simulator) -> list:
    """Every pending entry tuple: heap entries plus collision buckets."""
    return list(sim._heap) + [e for bucket in sim._buckets.values() for e in bucket]


def schedule_mix(sim: Simulator, items, fired: list) -> list:
    """Schedule ``(time, mode)`` items, tagging each with its index as
    pid, through all three schedulers; cancel the ``lane-cancelled``
    ones.  Returns the tags expected to fire, in schedule order."""
    lane = EventLane("mix-lane", None)
    live, doomed = [], []
    for tag, (time, mode) in enumerate(items):
        callback = lambda tag=tag: fired.append(tag)  # noqa: E731
        if mode == "at":
            sim.schedule_at(time, callback, "mix", tag)
        elif mode == "after":
            sim.schedule_after(time - sim.now, callback, "mix", tag)
        else:
            token = sim.schedule_lane_after(lane, time - sim.now, callback, tag)
            if mode == "lane-cancelled":
                doomed.append(token)
                continue
        live.append(tag)
    for token in doomed:
        assert lane.cancel(token)
    return live


class TestEventQueueBasics:
    def test_empty_queue_is_falsy(self):
        assert not EventQueue()
        assert Simulator().pending() == 0

    def test_len_tracks_pushes(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)  # a collision bucket entry
        sim.schedule_lane_after(EventLane("len-lane", None), 2.0, lambda: None)
        assert len(sim._queue) == sim.pending() == 4

    def test_equal_times_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for label in ("first", "second", "third"):
            sim.schedule_at(7.0, lambda label=label: fired.append(label), label)
        sim.run()
        assert fired == ["first", "second", "third"]
        assert sim.fired_by_kind == {"first": 1, "second": 1, "third": 1}

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule_at(float("nan"), lambda: None)

    def test_nan_time_rejected_on_cancellable_path(self):
        with pytest.raises(ValueError):
            Simulator().schedule_lane_after(EventLane("nan-lane", None), float("nan"), lambda: None)

    def test_clear(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(1.0, lambda: None)
        sim._queue.clear()
        assert sim.pending() == 0
        assert sim.run() == 0.0 and sim.events_fired == 0

    def test_pid_recorded(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None, pid=3)
        assert queued(sim)[0][3] == 3

    def test_entry_layout(self):
        sim = Simulator()
        cb = lambda: None  # noqa: E731
        sim.schedule_at(2.5, cb, "step", 1)
        (entry,) = queued(sim)
        time, seq, kid, pid, callback, token = entry
        assert time == 2.5
        assert isinstance(seq, int)
        assert kind_name(kid) == "step"
        assert pid == 1
        assert callback is cb
        assert token is None


class TestCancellation:
    def test_plain_push_carries_no_handle(self):
        sim = Simulator()
        sim.schedule_after(1.0, lambda: None)
        assert queued(sim)[0][5] is None

    def test_cancel_marks_handle(self):
        sim = Simulator()
        lane = EventLane("x", None)
        token = sim.schedule_lane_after(lane, 1.0, lambda: None)
        (entry,) = queued(sim)
        assert entry[4] is lane and entry[5] == token
        assert lane.live(token)
        assert lane.cancel(token)
        assert not lane.live(token)

    def test_cancel_is_lazy_entry_stays_queued(self):
        sim = Simulator()
        lane = EventLane("x", None)
        lane.cancel(sim.schedule_lane_after(lane, 1.0, lambda: None))
        assert sim.pending() == 1  # the standard O(1)-cancel trick
        sim.run()
        assert sim.pending() == 0
        assert (sim.events_fired, sim.events_skipped) == (0, 1)

    def test_cancel_one_of_many(self):
        sim = Simulator()
        fired = []
        lane = EventLane("drop", None)
        sim.schedule_at(1.0, lambda: fired.append("keep-a"))
        token = sim.schedule_lane_after(lane, 2.0, lambda: fired.append("drop"))
        sim.schedule_at(3.0, lambda: fired.append("keep-b"))
        lane.cancel(token)
        sim.run()
        assert fired == ["keep-a", "keep-b"]

    def test_cancellable_entries_keep_fifo_order_with_plain_ones(self):
        sim = Simulator()
        fired = []
        lane = EventLane("cancellable", None)
        sim.schedule_at(5.0, lambda: fired.append("plain-1"))
        sim.schedule_lane_after(lane, 5.0, lambda: fired.append("cancellable"))
        sim.schedule_at(5.0, lambda: fired.append("plain-2"))
        sim.run()
        assert fired == ["plain-1", "cancellable", "plain-2"]


class TestKindInterning:
    def test_round_trip(self):
        kid = intern_kind("some-unique-kind-label")
        assert kind_name(kid) == "some-unique-kind-label"

    def test_stable_ids(self):
        assert intern_kind("timer") == intern_kind("timer")

    def test_queue_uses_interned_ids(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None, kind="timer")
        sim.schedule_lane_after(EventLane("timer", None), 1.0, lambda: None)
        assert [entry[2] for entry in queued(sim)] == [intern_kind("timer")] * 2


class TestEventOrderingProperty:
    """Firing order over a mix of all three schedulers, lane
    cancellations and (in the stability property) a mid-run stop."""

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0, max_value=1e6, allow_nan=False), st.sampled_from(MODES)),
            min_size=1,
            max_size=60,
        )
    )
    def test_pop_order_is_sorted_by_time(self, items):
        sim = Simulator()
        fired: list = []
        live = schedule_mix(sim, items, fired)
        sim.run()
        assert [items[tag][0] for tag in fired] == sorted(items[tag][0] for tag in live)
        assert sim.events_skipped == len(items) - len(live)

    @given(
        st.lists(
            st.tuples(st.sampled_from([1.0, 2.0, 3.0]), st.sampled_from(MODES)),
            min_size=1,
            max_size=60,
        ),
        st.integers(1, 60),
    )
    def test_stable_within_equal_times(self, items, budget):
        sim = Simulator()
        fired: list = []
        live = schedule_mix(sim, items, fired)
        # A budgeted first run may stop mid-batch; the restored remainder
        # must keep the exact order.
        sim.run(max_events=budget)
        sim.run()
        # A stable sort on time preserves schedule order within ties.
        assert fired == sorted(live, key=lambda tag: items[tag][0])

    @given(st.lists(st.tuples(st.integers(0, 5), st.sampled_from(MODES)), min_size=1, max_size=40))
    def test_seq_numbers_strictly_increase_in_push_order(self, items):
        sim = Simulator()
        schedule_mix(sim, [(float(t), mode) for t, mode in items], [])
        by_seq = sorted(queued(sim), key=lambda entry: entry[1])
        assert [entry[3] for entry in by_seq] == list(range(len(items)))
