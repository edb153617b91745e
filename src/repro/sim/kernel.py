"""The discrete-event simulator kernel.

:class:`Simulator` owns the virtual clock and the event queue.  Higher
layers (the process runner in :mod:`repro.core.runner`, the timer service
in :mod:`repro.timers.service`) schedule callbacks; the kernel advances
time to each event in order and fires it.

The kernel deliberately knows nothing about processes, registers or
timers -- it is a plain DES core, which keeps it easy to test in
isolation and reusable by every substrate.

The queue is one binary heap of entry tuples
``(time, seq, kind_id, pid, callback, arg)`` (see
:mod:`repro.sim.events`), popped in exact ``(time, seq)`` order: ties
fire in the order their ``seq`` was drawn.  Entries are filed two ways:

* the checked schedulers.  :meth:`Simulator.schedule_at` /
  :meth:`Simulator.schedule_after` check the time and push one entry.
  Both also take an ``arg``: the entry then calls ``callback(arg)``.
  :meth:`Simulator.schedule_lane_after` schedules through a columnar
  :class:`~repro.sim.events.EventLane` and returns an *integer* token
  that cancels the event -- the one cancellable path, taken by the
  timer service's expirations and the message-passing processes' named
  timers;
* the raw producers.  :attr:`Simulator.push` is the C-level
  ``heappush`` onto the heap and :attr:`Simulator.next_seq` the
  counter's ``__next__``; a producer builds the entry tuple itself and
  owns the checks a scheduler would make (a time neither in the past
  nor NaN, an interned ``kind_id``).  Three hot producers do this and
  no other module may (the ``dispatch-raw-push`` lint rule): the step
  loop (:mod:`repro.core.runner`), message delivery
  (:mod:`repro.netsim.network`) and the register emulation's retry
  wakes, one per wire address (:mod:`repro.memory.emulated`), which
  reserve a ``seq`` when a quorum op or a state-sync round arms and
  file the entry later under that key.

``next_seq`` is the only source of ``seq`` for both ways, so the
tie order between same-instant entries has one place to change.

The run loop dispatches an entry three ways, on its last slot: ``None``
calls the zero-argument callback; otherwise a lane in the callback slot
fires the slot's token, and any other callback is called with the
slot's value as its one argument.  A lane entry whose token is stale,
or whose consumer returns ``False`` (it declines the event), counts in
``events_skipped``; every other entry counts in ``events_fired``.  Both
counters are stored after every event, so a callback reads the count
of the events before it.
"""

from __future__ import annotations

import itertools
from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.sim.events import _KIND_IDS, _KIND_NAMES, EventLane, intern_kind


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
        # Identities are stable: release() empties the heap in place.
        self._heap: list = []
        self._next_seq: Callable[[], int] = itertools.count().__next__
        #: The raw producers' entry points (see the module docstring):
        #: ``push(entry)`` files an entry tuple with no Python frame,
        #: and ``next_seq()`` draws the next ``seq``.
        self.push: Callable[[tuple], None] = partial(heappush, self._heap)
        self.next_seq: Callable[[], int] = self._next_seq
        self._now = 0.0
        self._running = False
        self.events_fired = 0
        self.events_skipped = 0
        self._trace_events = trace_events
        # Per-kind fire counts, indexed by interned kind id.
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
        but may not precede it.  No token is created; use
        :meth:`schedule_lane_after` when the event may need to be
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
        heappush(self._heap, (time, self._next_seq(), kid, pid, callback, arg))

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
        heappush(self._heap, (time, self._next_seq(), kid, pid, callback, arg))

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
        heappush(self._heap, (time, self._next_seq(), lane.kind_id, pid, lane, token))
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
            budget).  A budget below 1 raises ``ValueError``.

        Returns
        -------
        float
            The virtual time when the loop returned.
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
        # Hoisted out of the loop.  ``heap`` aliases the queue, so
        # callbacks that schedule new events grow it in place.
        heap = self._heap
        pop = heappop
        horizon = float("inf") if until is None else until
        counts = self._fired_counts if self._trace_events else None
        lane_type = EventLane
        fired = self.events_fired
        # The loop stops once ``fired`` reaches the budget; without one
        # it is -1, which a non-negative count never equals.
        budget = -1 if max_events is None else fired + max_events
        try:
            while heap:
                entry = pop(heap)
                time, _, kid, _, callback, arg = entry
                if time > horizon:
                    heappush(heap, entry)
                    self._now = horizon
                    break
                self._now = time
                if arg is None:
                    callback()
                elif type(callback) is not lane_type:
                    callback(arg)  # a one-argument entry
                elif not callback.fire(arg):
                    # Lane entry (the callback slot holds the lane)
                    # whose token was cancelled or whose consumer
                    # declined it.
                    self.events_skipped += 1
                    continue
                fired += 1
                self.events_fired = fired
                if counts is not None:
                    try:
                        counts[kid] += 1
                    except IndexError:
                        counts.extend([0] * (kid + 1 - len(counts)))
                        counts[kid] = 1
                if fired == budget:
                    break
            else:
                # Queue drained; advance the clock to the horizon if given.
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._running = False
        return self._now

    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._heap)

    def release(self) -> None:
        """Drop every pending event and free its lane slot.

        The end of a run: each queued entry holds its callback (a step,
        a timer, a sample, a delivery handler with its message, a
        retry), each callback holds its owner, and each owner holds
        this simulator, so a queue left standing at the horizon keeps
        the whole run graph alive in reference cycles.  Releasing
        empties the heap in place and cancels every lane token still
        queued, so its lane drops the payload and the slot returns to
        the free list (a one-argument entry's value is no token: it is
        simply dropped).  The clock, ``events_fired``,
        ``events_skipped`` and the per-kind counts are untouched;
        events scheduled afterwards run as on a fresh queue.  Refused
        while the loop is running.
        """
        if self._running:
            raise SimulationError("cannot release pending events while running")
        for entry in self._heap:
            if type(entry[4]) is EventLane:
                entry[4].cancel(entry[5])
        self._heap.clear()


__all__ = ["SimulationError", "Simulator"]
