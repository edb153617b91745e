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
-- the service keeps one token per pid, so arming allocates no handle
and cancels in O(1) via the lane's generation counters.  The service
records nothing: each behaviour's ``(tau, x, duration)`` history is the
one timer record of a run.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.sim.events import EventLane
from repro.sim.kernel import Simulator
from repro.timers.awb import TimerBehavior


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
        #: pid -> lane token of its last armed timer (stale once fired).
        self._tokens: Dict[int, int] = {}
        # Lane payloads are the timer callbacks themselves (consume=None
        # means "payload is a zero-arg callable; invoke it").
        self._lane = EventLane("timer", None)

    def behavior(self, pid: int) -> TimerBehavior:
        """The behaviour model of ``pid`` (KeyError if none configured)."""
        return self._behaviors[pid]

    def set_timer(self, pid: int, timeout: float, callback: Callable[[], None]) -> None:
        """Arm (or re-arm) ``pid``'s timer to ``timeout``.

        Re-arming cancels any previously armed timer of the same
        process -- each process owns exactly one timer, as in the paper.
        """
        previous = self._tokens.get(pid)
        if previous is not None:
            self._lane.cancel(previous)
        duration = self._behaviors[pid].duration(pid, self._sim.now, timeout)
        if duration <= 0:
            raise ValueError(f"behaviour produced non-positive duration {duration}")
        self._tokens[pid] = self._sim.schedule_lane_after(self._lane, duration, callback, pid=pid)

    def cancel(self, pid: int) -> None:
        """Disarm ``pid``'s timer if armed (used on crash)."""
        token = self._tokens.pop(pid, None)
        if token is not None:
            self._lane.cancel(token)


__all__ = ["TimerService"]
