"""The discrete-event simulator kernel.

:class:`Simulator` owns the virtual clock and the event queue.  Higher
layers (the process runner in :mod:`repro.core.runner`, the timer service
in :mod:`repro.timers.service`) schedule callbacks; the kernel advances
time to each event in order and fires it.

The kernel deliberately knows nothing about processes, registers or
timers -- it is a plain DES core, which keeps it easy to test in
isolation and reusable by every substrate.

Scheduling comes in two flavours:

* :meth:`Simulator.schedule_at` / :meth:`Simulator.schedule_after` are
  the dominant schedule-and-fire path and allocate nothing but the
  queue's entry tuple (the queue insert is fused into these methods --
  no intermediate call layer on the hot path).  Both also take an
  ``arg``: the entry then calls ``callback(arg)``, which is how a netsim
  message delivery (never cancelled) reaches its handler with no
  closure or ``partial`` built per message;
* :meth:`Simulator.schedule_lane_after` schedules through a columnar
  :class:`~repro.sim.events.EventLane` and returns an *integer* token
  that cancels the event -- the one cancellable path, taken by every
  re-armed timer (the timer service's expirations, the message-passing
  processes' named timers and the register emulation's retransmission
  timers).

The run loop therefore dispatches an entry three ways, on its last
slot: ``None`` calls the zero-argument callback; otherwise a lane in
the callback slot fires the slot's token (skipped once stale), and any
other callback is called with the slot's value as its one argument.

**Batch dispatch.**  The run loop drains all events sharing the current
virtual timestamp as one *batch*: the heap yields the first event at
that instant and the queue's collision bucket supplies the rest, in
exact ``(time, seq)`` order, without touching the heap again.  The loop
body is locals-only; ``events_fired`` / ``events_skipped`` are synced to
the instance at **batch boundaries** (and whenever the loop returns), so
a callback that reads ``sim.events_fired`` mid-batch observes the value
as of the start of its batch -- the *batch-visible contract*.  The one
per-event guarantee is the ``max_events`` budget: it is honoured
mid-batch, with the undrained remainder of the batch restored to the
queue in exact order.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.sim.events import _EMPTY, _KIND_IDS, _KIND_NAMES, EventLane, intern_kind


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, running twice...)."""


class Simulator:
    """Virtual-time event loop.

    Parameters
    ----------
    trace_events:
        When true, keep a count per event kind (cheap observability used
        by tests and benches).  Counts accumulate in a list indexed by
        interned kind id; the name-keyed :attr:`fired_by_kind` dict is
        materialized lazily on read, so the traced hot loop never hashes
        kind strings.

    Notes
    -----
    Time is a ``float`` number of abstract *time units*.  Nothing in the
    library interprets a unit as a second; the paper's model is untimed
    except for the AWB bounds, which are expressed in the same units.
    """

    def __init__(self, trace_events: bool = True) -> None:
        # The hybrid queue (see repro.sim.events): one heap entry per
        # distinct pending timestamp, the rest in that timestamp's FIFO
        # bucket.  Identities are stable; release() empties them in
        # place.
        self._heap: list = []
        self._buckets: dict = {}
        self._next_seq = itertools.count().__next__
        # Timestamp forced to heap-direct scheduling after a mid-batch
        # stop (NaN matches nothing, so the common path has no flag).
        self._direct_time = float("nan")
        self._now = 0.0
        self._running = False
        self.events_fired = 0
        self.events_skipped = 0
        self._trace_events = trace_events
        # Per-kind fire counts, indexed by interned kind id (satellite
        # fix: the old dict.get per traced event is gone).
        self._fired_counts: list = []

    @property
    def trace_events(self) -> bool:
        """Whether per-kind event accounting is enabled."""
        return self._trace_events

    @property
    def fired_by_kind(self) -> dict:
        """Fired-event counts keyed by kind name (traced mode only).

        Materialized on read from the id-indexed count column; mutating
        the returned dict does not affect the simulator's accounting.
        """
        counts = self._fired_counts
        names = _KIND_NAMES
        return {names[kid]: n for kid, n in enumerate(counts) if n}

    # ------------------------------------------------------------------
    # Clock and scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        kind: str = "event",
        pid: Optional[int] = None,
        arg: Any = None,
    ) -> None:
        """Schedule ``callback`` at absolute virtual time ``time``.

        ``time`` may equal ``now`` (fires after currently-firing event)
        but may not precede it.  The fast path: no token is created;
        use :meth:`schedule_lane_after` when the event may need to be
        disarmed.  The event calls ``callback()``, or ``callback(arg)``
        when ``arg`` is not ``None``.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        if time != time:  # NaN guard
            raise ValueError("event time must not be NaN")
        try:
            kid = _KIND_IDS[kind]
        except KeyError:
            kid = intern_kind(kind)
        # Fused hybrid-queue insert (the heap if first at that instant
        # or the instant is pinned heap-direct, its bucket otherwise;
        # duplicated in the three schedulers so the path stays
        # call-free).
        entry = (time, self._next_seq(), kid, pid, callback, arg)
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            if time != self._direct_time:
                buckets[time] = _EMPTY
            heappush(self._heap, entry)
        elif bucket is _EMPTY:
            if time != self._direct_time:
                buckets[time] = [entry]
            else:
                heappush(self._heap, entry)
        else:
            bucket.append(entry)

    def schedule_after(
        self,
        delay: float,
        callback: Callable[..., None],
        kind: str = "event",
        pid: Optional[int] = None,
        arg: Any = None,
    ) -> None:
        """Schedule ``callback`` after a non-negative ``delay`` (no token).

        The event calls ``callback()``, or ``callback(arg)`` when
        ``arg`` is not ``None`` -- one entry tuple either way, so a
        one-argument event needs no closure or ``partial``.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self._now + delay
        if time != time:  # NaN guard
            raise ValueError("event time must not be NaN")
        try:
            kid = _KIND_IDS[kind]
        except KeyError:
            kid = intern_kind(kind)
        entry = (time, self._next_seq(), kid, pid, callback, arg)
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            if time != self._direct_time:
                buckets[time] = _EMPTY
            heappush(self._heap, entry)
        elif bucket is _EMPTY:
            if time != self._direct_time:
                buckets[time] = [entry]
            else:
                heappush(self._heap, entry)
        else:
            bucket.append(entry)

    def schedule_lane_after(
        self,
        lane: EventLane,
        delay: float,
        payload: Any,
        pid: Optional[int] = None,
    ) -> int:
        """Schedule ``payload`` through ``lane`` after ``delay``.

        Returns the lane token -- an integer that cancels or probes the
        event via ``lane.cancel(token)`` / ``lane.live(token)``.  This
        is the kernel's one cancellable path: no handle object; the
        payload lives in the lane's preallocated columns until the event
        fires.  Events that are never cancelled belong on
        :meth:`schedule_after` instead.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self._now + delay
        if time != time:  # NaN guard
            raise ValueError("event time must not be NaN")
        token = lane.acquire(payload)
        entry = (time, self._next_seq(), lane.kind_id, pid, lane, token)
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            if time != self._direct_time:
                buckets[time] = _EMPTY
            heappush(self._heap, entry)
        elif bucket is _EMPTY:
            if time != self._direct_time:
                buckets[time] = [entry]
            else:
                heappush(self._heap, entry)
        else:
            bucket.append(entry)
        return token

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Fire events in order until the queue drains or a bound holds.

        Parameters
        ----------
        until:
            Inclusive virtual-time horizon.  Events scheduled strictly
            after it stay queued; the clock is advanced to ``until``.
            A horizon before :attr:`now` raises :class:`SimulationError`
            (the clock never runs backwards) and a NaN one raises
            ``ValueError``; ``until == now`` is allowed.
        max_events:
            Safety valve on the number of events fired *by this
            invocation* (not the simulator-lifetime ``events_fired``
            counter, so repeated ``run()`` calls each get a fresh
            budget).  Honoured mid-batch; a budget below 1 raises
            ``ValueError``.

        Returns
        -------
        float
            The virtual time when the loop returned.

        Notes
        -----
        Events sharing a timestamp are dispatched as one batch (see the
        module docstring).  ``events_fired`` / ``events_skipped`` are
        synced to the instance at batch boundaries, so callbacks that
        read them mid-batch observe the values as of the start of their
        batch.  When the budget stops the loop mid-batch, the rest of
        the batch is restored to the queue in exact ``(time, seq)``
        order.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        if until is not None:
            if until != until:  # NaN guard
                raise ValueError("run horizon must not be NaN")
            if until < self._now:
                raise SimulationError(
                    f"cannot run until {until}, before current time {self._now}"
                )
        if max_events is not None and max_events < 1:
            raise ValueError(f"max_events must be at least 1, got {max_events}")
        self._running = True
        # Hoisted out of the loop: the batch drain touches only locals.
        # ``heap`` / ``buckets`` alias the queue's storage, so callbacks
        # that schedule new events grow them in place.
        heap = self._heap
        buckets = self._buckets
        bpop = buckets.pop
        pop = heappop
        push = heappush
        counts = self._fired_counts if self._trace_events else None
        lane_type = EventLane
        fired = self.events_fired
        skipped = self.events_skipped
        # The loop stops once ``fired`` reaches the budget; without one
        # it is -1, which a non-negative count never equals.
        budget = -1 if max_events is None else fired + max_events
        try:
            while heap:
                time = heap[0][0]
                if until is not None and time > until:
                    self._now = until
                    break
                entry = pop(heap)
                self._now = time
                # The batch: the heap entry plus the instant's collision
                # bucket (exact seq order; _EMPTY means no collisions --
                # the dominant singleton case takes the loop-free path).
                bucket = bpop(time, _EMPTY)
                if bucket is _EMPTY:
                    token = entry[5]
                    if token is None:
                        entry[4]()
                    elif type(entry[4]) is not lane_type:
                        entry[4](token)  # a one-argument entry
                    elif not entry[4].fire(token):
                        # Lane entry (the callback slot holds the lane)
                        # whose token was cancelled.
                        skipped += 1
                        continue
                    fired += 1
                    if counts is not None:
                        kid = entry[2]
                        try:
                            counts[kid] += 1
                        except IndexError:
                            counts.extend([0] * (kid + 1 - len(counts)))
                            counts[kid] = 1
                    if fired == budget:
                        # A same-instant straggler scheduled by this
                        # event sits in the heap with a fresh marker (or
                        # upgraded bucket); restore it heap-individual
                        # and pin the instant so post-stop schedules at
                        # it stay in exact seq order.
                        extra = bpop(time, _EMPTY)
                        if extra is not _EMPTY:
                            for straggler in extra:
                                push(heap, straggler)
                            self._direct_time = time
                        break
                    # Batch boundary: sync the public counters.
                    self.events_fired = fired
                    self.events_skipped = skipped
                    continue
                size = len(bucket)
                index = 0
                while True:
                    token = entry[5]
                    if token is None:
                        entry[4]()
                        live = True
                    elif type(entry[4]) is not lane_type:
                        entry[4](token)  # a one-argument entry
                        live = True
                    else:
                        # Lane entry: the callback slot holds the lane.
                        live = entry[4].fire(token)
                    if live:
                        fired += 1
                        if counts is not None:
                            kid = entry[2]
                            try:
                                counts[kid] += 1
                            except IndexError:
                                counts.extend([0] * (kid + 1 - len(counts)))
                                counts[kid] = 1
                        if fired == budget:
                            # Mid-batch stop: restore the undrained
                            # remainder (and any same-instant stragglers
                            # scheduled during the batch) to the heap
                            # individually -- their seqs keep the order
                            # exact -- and pin the instant heap-direct
                            # so later same-time schedules stay exact.
                            extra = bpop(time, _EMPTY)
                            if index < size or extra is not _EMPTY:
                                for j in range(index, size):
                                    push(heap, bucket[j])
                                for straggler in extra:
                                    push(heap, straggler)
                                self._direct_time = time
                            break
                    else:
                        skipped += 1
                    if index >= size:
                        break
                    entry = bucket[index]
                    index += 1
                if fired == budget:
                    break
                # Batch boundary: sync the public counters.
                self.events_fired = fired
                self.events_skipped = skipped
            else:
                # Queue drained; advance the clock to the horizon if given.
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._running = False
            self.events_fired = fired
            self.events_skipped = skipped
        return self._now

    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._heap) + sum(map(len, self._buckets.values()))

    def release(self) -> None:
        """Drop every pending event and free its lane slot.

        The end of a run: each queued entry holds its callback (a step,
        a timer, a sample, a delivery handler with its message, a
        retry), each callback holds its owner, and each owner holds
        this simulator, so a queue left standing at the horizon keeps
        the whole run graph alive in reference cycles.  Releasing
        empties the heap and the collision buckets in place and cancels
        every lane token still queued, so its lane drops the payload
        and the slot returns to the free list (a one-argument entry's
        value is no token: it is simply dropped).  The clock,
        ``events_fired``, ``events_skipped`` and the per-kind counts are
        untouched; events scheduled afterwards run as on a fresh queue.
        Refused while the loop is running.
        """
        if self._running:
            raise SimulationError("cannot release pending events while running")
        for entry in self._heap:
            if type(entry[4]) is EventLane:
                entry[4].cancel(entry[5])
        for bucket in self._buckets.values():
            for entry in bucket:
                if type(entry[4]) is EventLane:
                    entry[4].cancel(entry[5])
        self._heap.clear()
        self._buckets.clear()
        self._direct_time = float("nan")


__all__ = ["SimulationError", "Simulator"]

