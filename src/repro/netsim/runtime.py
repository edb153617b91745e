"""Message-passing processes and their per-process runtime.

Message-passing Omega algorithms are reactive (handle a message, handle
a timeout), so a process is a set of handler callbacks rather than a
set of operation coroutines.  Local handler execution is modelled as
instantaneous: in the related-work algorithms all the asynchrony that
matters lives in the *channels* (that is precisely the [2] model, where
process speeds are benign and links carry the timing assumption).

:class:`~repro.core.runner.Run` executes an :class:`MpProcess`
subclass like any other algorithm: its message-passing assembly builds
a :class:`~repro.netsim.network.Network` over its simulator and one
:class:`MpProcessRuntime` per pid, and no registers, step-delay model
or timer service (the result's ``memory`` and ``timer_service`` are
``None``); its crash installer, observer, release step and result
bundle serve both families.
"""

from __future__ import annotations

import abc
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.netsim.network import Message, Network
from repro.sim.crash import CrashPlan
from repro.sim.events import EventLane
from repro.sim.kernel import Simulator


class MpProcess(abc.ABC):
    """Base class for message-passing processes.

    Subclasses implement the three handlers and :meth:`peek_leader`.
    Their :attr:`send`, :attr:`broadcast` and :attr:`set_timer` go
    through the :class:`MpProcessRuntime` the run attaches before
    :meth:`on_start` runs.
    """

    display_name: str = "mp-process"

    def __init__(self, pid: int, n: int, config: Dict[str, Any]) -> None:
        self.pid = pid
        self.n = n
        self.config = config
        self._runtime: Optional[MpProcessRuntime] = None

    # -- wiring (through the runtime) ------------------------------------
    def send(self, receiver: int, kind: str, payload: Any = None) -> None:
        """Send one message."""
        assert self._runtime is not None
        self._runtime.network.send(self.pid, receiver, kind, payload)

    def broadcast(self, kind: str, payload: Any = None) -> None:
        """Send to all other processes."""
        assert self._runtime is not None
        self._runtime.network.broadcast(self.pid, self.n, kind, payload)

    def set_timer(self, tag: str, delay: float) -> None:
        """(Re-)arm the named local timer."""
        assert self._runtime is not None
        self._runtime.set_timer(tag, delay)

    # -- handlers ---------------------------------------------------------
    def on_start(self) -> None:
        """Called once at time 0."""

    @abc.abstractmethod
    def on_message(self, message: Message) -> None:
        """Called at each delivery addressed to this process."""

    def on_timer(self, tag: str) -> None:
        """Called when the named timer expires."""

    @abc.abstractmethod
    def peek_leader(self) -> int:
        """Observer ``leader()`` output."""


def _fire_timer(key: Tuple["MpProcessRuntime", str]) -> None:
    """The ``mp-timer`` lane's consumer: a crashed process's timers
    still fire (and count) but are dropped."""
    runtime, tag = key
    if not runtime.crashed:
        runtime.process.on_timer(tag)


class MpProcessRuntime:
    """Drives one :class:`MpProcess` inside a run: routes, timers, crash.

    It has the members :class:`~repro.core.runner.Run` reads of a
    process runtime: :attr:`crashed`, :meth:`start`, :meth:`crash` and
    :meth:`release`.  Every message addressed to the pid, whatever its
    kind, is routed to :meth:`_deliver`, which counts it and hands it
    to the process unless the process crashed.  Named timers share the
    run's one ``mp-timer`` lane (:func:`attach_runtimes`); re-arming a
    tag cancels its last token.
    """

    def __init__(
        self, process: MpProcess, sim: Simulator, network: Network, timers: EventLane, crash_at: float
    ) -> None:
        self.process = process
        self.network = network
        self.crashed = False
        self._sim = sim
        self._timers = timers
        self._tokens: Dict[str, int] = {}
        self._crash_at = crash_at
        process._runtime = self
        deliver = self._deliver
        network.install_routes(defaultdict(lambda: deliver), address=process.pid)

    def start(self) -> None:
        """Call the process's ``on_start`` unless it is crashed at 0."""
        if self._crash_at > 0.0:
            self.process.on_start()

    def crash(self) -> None:
        """Crash-stop: the process handles no further message or timer."""
        self.crashed = True

    def release(self) -> None:
        """End of run: the process forgets this runtime (the run drops
        the network's routes to it)."""
        self.process._runtime = None

    def set_timer(self, tag: str, delay: float) -> None:
        """(Re-)arm the named timer (cancels the previous one)."""
        if delay <= 0:
            raise ValueError("timer delay must be positive")
        previous = self._tokens.get(tag)
        if previous is not None:
            self._timers.cancel(previous)
        self._tokens[tag] = self._sim.schedule_lane_after(
            self._timers, delay, (self, tag), pid=self.process.pid
        )

    def _deliver(self, message: Message) -> None:
        self.network.delivered += 1
        if not self.crashed:
            self.process.on_message(message)


def attach_runtimes(
    processes: Sequence[MpProcess], *, sim: Simulator, network: Network, crash_plan: CrashPlan
) -> List[MpProcessRuntime]:
    """One runtime per process, all arming timers on one ``mp-timer`` lane."""
    timers = EventLane("mp-timer", _fire_timer)
    return [
        MpProcessRuntime(proc, sim, network, timers, crash_plan.crash_time(proc.pid))
        for proc in processes
    ]


__all__ = ["MpProcess", "MpProcessRuntime", "attach_runtimes"]
