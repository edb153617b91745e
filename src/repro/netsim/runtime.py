"""Event-driven runtime for message-passing processes.

Message-passing Omega algorithms are reactive (handle a message, handle
a timeout), so the runtime dispatches handler callbacks rather than
stepping operation coroutines.  Local handler execution is modelled as
instantaneous: in the related-work algorithms all the asynchrony that
matters lives in the *channels* (that is precisely the [2] model, where
process speeds are benign and links carry the timing assumption).

Crash-stop semantics, observer sampling and determinism mirror the
shared-memory runner, so the same analysis code consumes both: the
trace holds the leader samples, the crash plan (cut to the horizon) the
crashes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Type

from repro.netsim.network import ChannelBehavior, Message, Network, TimelyLinks
from repro.sim.crash import CrashPlan
from repro.sim.events import EventLane
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.tracing import RunTrace


class MpProcess(abc.ABC):
    """Base class for message-passing processes.

    Subclasses implement the three handlers and :meth:`peek_leader`.
    The runtime injects :attr:`send`, :attr:`broadcast` and
    :attr:`set_timer` before :meth:`on_start` runs.
    """

    display_name: str = "mp-process"

    def __init__(self, pid: int, n: int, config: Dict[str, Any]) -> None:
        self.pid = pid
        self.n = n
        self.config = config
        self._run: Optional["MpRun"] = None

    # -- wiring (installed by the runtime) -------------------------------
    def send(self, receiver: int, kind: str, payload: Any = None) -> None:
        """Send one message."""
        assert self._run is not None
        self._run.network.send(self.pid, receiver, kind, payload)

    def broadcast(self, kind: str, payload: Any = None) -> None:
        """Send to all other processes."""
        assert self._run is not None
        self._run.network.broadcast(self.pid, self.n, kind, payload)

    def set_timer(self, tag: str, delay: float) -> None:
        """(Re-)arm the named local timer."""
        assert self._run is not None
        self._run.set_timer(self.pid, tag, delay)

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


@dataclass
class MpRunResult:
    """Outcome bundle of a message-passing run."""

    algorithm_name: str
    n: int
    horizon: float
    seed: int
    trace: RunTrace
    network: Network
    sim: Simulator
    crash_plan: CrashPlan
    processes: List[MpProcess]

    def stabilization(self, margin: float = 0.0) -> Any:
        """The Theorem 1 (Eventual Leadership) verdict: a
        :class:`~repro.props.checkers.LeadershipVerdict`."""
        from repro.props.checkers import leadership_verdict

        return leadership_verdict(self.trace, self.crash_plan, self.horizon, margin=margin)


class MpRun:
    """Assemble and execute a message-passing run."""

    def __init__(
        self,
        process_cls: Type[MpProcess],
        n: int,
        *,
        seed: int = 0,
        horizon: float = 2000.0,
        behavior: Optional[ChannelBehavior] = None,
        crash_plan: Optional[CrashPlan] = None,
        sample_interval: float = 5.0,
        config: Optional[Dict[str, Any]] = None,
    ) -> None:
        if n < 2:
            raise ValueError("need at least two processes")
        self.n = n
        self.seed = seed
        self.horizon = horizon
        self.rng = RngRegistry(seed)
        self.sim = Simulator()
        self.network = Network(self.sim, behavior or TimelyLinks(self.rng))
        self.crash_plan = (crash_plan or CrashPlan.none(n)).until(horizon)
        self.sample_interval = sample_interval
        self.trace = RunTrace()
        cfg = dict(config or {})
        self.processes = [process_cls(pid, n, cfg) for pid in range(n)]
        for proc in self.processes:
            proc._run = self
        self._crashed = [False] * n
        self._timers: Dict[tuple[int, str], int] = {}
        # Named timers share one columnar lane; the payload is the
        # ``(pid, tag)`` key and the token in ``_timers`` both probes
        # and cancels (see EventLane).
        self._timer_lane: Optional[EventLane] = EventLane("mp-timer", self._fire_timer)
        self.network.install_delivery(self._deliver)

    # ------------------------------------------------------------------
    def set_timer(self, pid: int, tag: str, delay: float) -> None:
        """(Re-)arm one process's named timer (cancels the previous one)."""
        if delay <= 0:
            raise ValueError("timer delay must be positive")
        key = (pid, tag)
        lane = self._timer_lane
        assert lane is not None, "a released run arms no timer"
        previous = self._timers.get(key)
        if previous is not None:
            lane.cancel(previous)
        self._timers[key] = self.sim.schedule_lane_after(lane, delay, key, pid=pid)

    def _fire_timer(self, key: tuple[int, str]) -> None:
        pid, tag = key
        if not self._crashed[pid]:
            self.processes[pid].on_timer(tag)

    def _deliver(self, message: Message) -> None:
        if not self._crashed[message.receiver]:
            self.processes[message.receiver].on_message(message)

    def _install_crashes(self) -> None:
        for pid, t in sorted(self.crash_plan.crash_times.items()):

            def crash(p: int = pid) -> None:
                self._crashed[p] = True

            self.sim.schedule_at(t, crash, kind="crash", pid=pid)

    def _sample(self) -> None:
        now = self.sim.now
        for pid, proc in enumerate(self.processes):
            if not self._crashed[pid]:
                self.trace.record_leader_sample(now, pid, proc.peek_leader())
        nxt = now + self.sample_interval
        if nxt <= self.horizon:
            self.sim.schedule_at(nxt, self._sample, kind="sample")

    def _release(self) -> None:
        """Break the cycles the run needs while it runs, as
        :meth:`repro.core.runner.Run.execute` does: the kernel drops
        every pending event, the network its routes, the timer lane
        goes with its consumer, and each process forgets the run."""
        self.sim.release()
        self.network.install_routes({})
        self._timer_lane = None
        for proc in self.processes:
            proc._run = None

    # ------------------------------------------------------------------
    def execute(self) -> MpRunResult:
        """Run to the horizon and return the result bundle.

        After the final observer sample the run releases itself (see
        :meth:`_release`), so dropping the result frees it at once.
        """
        self._install_crashes()
        for pid, proc in enumerate(self.processes):
            if not self.crash_plan.is_crashed(pid, 0.0):
                proc.on_start()
        self.sim.schedule_at(0.0, self._sample, kind="sample")
        # Top-level run driver (execute() is called from outside the
        # simulator), not a dispatch callback.
        self.sim.run(until=self.horizon)  # repro-lint: disable=dispatch-reentrant-run
        for pid, proc in enumerate(self.processes):
            if not self._crashed[pid]:
                self.trace.record_leader_sample(self.horizon, pid, proc.peek_leader())
        self._release()
        return MpRunResult(
            algorithm_name=type(self.processes[0]).display_name,
            n=self.n,
            horizon=self.horizon,
            seed=self.seed,
            trace=self.trace,
            network=self.network,
            sim=self.sim,
            crash_plan=self.crash_plan,
            processes=self.processes,
        )


__all__ = ["MpProcess", "MpRun", "MpRunResult"]
