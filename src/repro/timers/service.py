"""The kernel-attached timer service.

Task ``T3`` of both algorithms runs "when ``timer_i`` expires".  The
service turns a ``set_timer(pid, x)`` into a kernel event whose firing
time is decided by the process's :class:`~repro.timers.awb.TimerBehavior`
-- the component assumption AWB2 constrains.  The timeout *value* ``x``
is a pure number (the algorithms use ``max_k SUSPICIONS[i][k] + 1``);
only the behaviour model converts it into virtual-time duration.

Re-arming must disarm the previous expiration, so timers ride the
kernel's one cancellable path, the columnar
:class:`~repro.sim.events.EventLane`: arming a timer stores its callback
in the lane's preallocated payload column and gets back an integer token
-- no per-event handle allocation, O(1) cancellation via the lane's
generation counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.events import EventLane
from repro.sim.kernel import Simulator
from repro.timers.awb import TimerBehavior


@dataclass(slots=True)
class TimerHandle:
    """Reference to an armed timer; cancellable."""

    pid: int
    timeout: float
    set_at: float
    fires_at: float
    _lane: EventLane
    _token: int

    def cancel(self) -> None:
        """Disarm the timer (its callback will not run)."""
        self._lane.cancel(self._token)


class TimerService:
    """Per-process timers driven by pluggable behaviour models.

    Parameters
    ----------
    sim:
        The simulation kernel supplying the clock and event queue.
    behavior_for:
        Maps pid to its :class:`TimerBehavior`.  Different processes may
        have different behaviours (the AWB1 process's timer is entirely
        unconstrained by the paper -- scenarios exploit that).
    """

    def __init__(self, sim: Simulator, behavior_for: Dict[int, TimerBehavior]) -> None:
        self._sim = sim
        self._behaviors = behavior_for
        #: realized (set_at, timeout, duration) per pid -- Figure 1 data.
        self.history_by_pid: Dict[int, List[Tuple[float, float, float]]] = {}
        self._active: Dict[int, TimerHandle] = {}
        # Lane payloads are the timer callbacks themselves (consume=None
        # means "payload is a zero-arg callable; invoke it").
        self._lane = EventLane("timer", None)

    def behavior(self, pid: int) -> TimerBehavior:
        """The behaviour model of ``pid`` (KeyError if none configured)."""
        return self._behaviors[pid]

    def set_timer(self, pid: int, timeout: float, callback: Callable[[], None]) -> TimerHandle:
        """Arm (or re-arm) ``pid``'s timer to ``timeout``.

        Re-arming cancels any previously armed timer of the same
        process -- each process owns exactly one timer, as in the paper.
        Returns the handle.
        """
        previous = self._active.get(pid)
        if previous is not None:
            previous.cancel()
        now = self._sim.now
        duration = self._behaviors[pid].duration(pid, now, timeout)
        if duration <= 0:
            raise ValueError(f"behaviour produced non-positive duration {duration}")
        self.history_by_pid.setdefault(pid, []).append((now, timeout, duration))
        # Re-arming must disarm the previous event, so timers go through
        # the columnar lane: cancellable, but allocation-free.
        token = self._sim.schedule_lane_after(self._lane, duration, callback, pid=pid)
        handle = TimerHandle(
            pid=pid,
            timeout=timeout,
            set_at=now,
            fires_at=now + duration,
            _lane=self._lane,
            _token=token,
        )
        self._active[pid] = handle
        return handle

    def cancel(self, pid: int) -> None:
        """Disarm ``pid``'s timer if armed (used on crash)."""
        handle = self._active.pop(pid, None)
        if handle is not None:
            handle.cancel()

    def active_timer(self, pid: int) -> Optional[TimerHandle]:
        """The currently armed timer of ``pid``, if any."""
        return self._active.get(pid)


__all__ = ["TimerHandle", "TimerService"]
