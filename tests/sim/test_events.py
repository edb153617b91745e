"""The event queue as the kernel drives it: ordering, stability, lanes.

The queue is ``Simulator``'s own storage -- its fused schedulers file
entries and its run loop drains them -- so every test here goes through
``schedule_at`` / ``schedule_after`` / ``schedule_lane_after`` and reads
the result off the firing order or the queued entry tuples
``(time, seq, kind_id, pid, callback, token)``.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.events import EventLane, intern_kind
from repro.sim.kernel import SimulationError, Simulator

MODES = ("at", "after", "lane", "lane-cancelled")


def queued(sim: Simulator) -> list:
    """Every pending entry tuple on the heap."""
    return list(sim._heap)


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
        sim = Simulator()
        assert not sim.pending()
        assert not sim._heap

    def test_len_tracks_pushes(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)  # a same-time entry
        sim.schedule_lane_after(EventLane("len-lane", None), 2.0, lambda: None)
        assert len(queued(sim)) == sim.pending() == 4

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

    def test_release_empties_the_queue(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(1.0, lambda: None)
        sim.release()
        assert sim.pending() == 0
        assert sim.run() == 0.0 and sim.events_fired == 0

    def test_release_frees_every_lane_slot(self):
        sim = Simulator()
        lane = EventLane("release-lane", None, capacity=2)
        tokens = [sim.schedule_lane_after(lane, delay, lambda: None) for delay in (1.0, 1.0, 2.0)]
        lane.cancel(tokens[0])  # a stale entry stays queued; releasing it is a no-op
        sim.schedule_at(1.0, lambda: None)
        sim.release()
        # The lane grew to 4 slots for 3 armed events; all are free again
        # and none keeps its payload alive.
        assert sorted(lane._free) == list(range(len(lane._payloads))) == [0, 1, 2, 3]
        assert lane._payloads == [None] * 4
        assert not any(lane.live(token) for token in tokens)
        # A re-arm reuses a freed slot instead of growing the columns.
        fired = []
        token = sim.schedule_lane_after(lane, 1.0, lambda: fired.append("re-armed"))
        assert len(lane._payloads) == 4 and lane.live(token)
        sim.run()
        assert fired == ["re-armed"] and sim.events_fired == 1

    def test_release_is_refused_while_running(self):
        sim = Simulator()
        sim.schedule_at(1.0, sim.release)
        with pytest.raises(SimulationError):
            sim.run()

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
        assert kid == intern_kind("step")
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

    def test_a_declining_consumer_counts_as_skipped(self):
        sim = Simulator()
        seen = []
        lane = EventLane("declines", lambda payload: seen.append(payload) or payload != "no")
        for payload in ("yes", "no", "yes"):
            sim.schedule_lane_after(lane, 1.0, payload)
        sim.run()
        assert seen == ["yes", "no", "yes"]  # the consumer ran for each
        assert (sim.events_fired, sim.events_skipped) == (2, 1)
        assert sim.fired_by_kind == {"declines": 2}


class TestRawProducers:
    """``Simulator.push`` / ``Simulator.next_seq``: entries a producer
    files itself share the one ``seq`` counter with the schedulers."""

    def test_push_files_on_the_one_heap(self):
        sim = Simulator()
        fired = []
        sim.push((2.0, sim.next_seq(), intern_kind("raw"), 7, fired.append, "raw"))
        assert sim.pending() == 1 and queued(sim)[0][3] == 7
        sim.run()
        assert fired == ["raw"] and sim.fired_by_kind == {"raw": 1}

    def test_pushed_and_scheduled_entries_at_one_instant_fire_in_seq_order(self):
        sim = Simulator()
        fired = []
        kid = intern_kind("raw")
        reserved = sim.next_seq()  # drawn first, filed last
        sim.schedule_after(1.0, fired.append, arg="scheduled-1")
        sim.push((1.0, sim.next_seq(), kid, None, fired.append, "pushed-2"))
        sim.schedule_at(1.0, fired.append, arg="scheduled-3")
        sim.push((1.0, reserved, kid, None, fired.append, "pushed-0"))
        sim.run()
        assert fired == ["pushed-0", "scheduled-1", "pushed-2", "scheduled-3"]


class TestKindInterning:
    def test_round_trip(self):
        # A traced run keys its per-kind counts by the interned label.
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None, kind="some-unique-kind-label")
        sim.run()
        assert sim.fired_by_kind == {"some-unique-kind-label": 1}

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
