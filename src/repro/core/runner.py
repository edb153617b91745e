"""Run assembly: algorithm + kernel + memory + timers + crash plan.

A :class:`Run` wires one algorithm class into the substrates and drives
it to a horizon; the outcome is a :class:`RunResult` bundling the trace,
the shared-memory access log, and everything the analysis layer needs.
Every run is a pure function of its configuration and seed.

Execution model
---------------
Each process multiplexes its tasks (``T2``, ``T3`` instances, extras)
round-robin, one *operation* per scheduled step -- the paper's "step"
granularity.  After each operation the process is re-scheduled after a
delay drawn from the run's step-delay model; that model is where
asynchrony and assumption AWB1 live.  Timer expirations enqueue a fresh
``T3`` task.  Crashes stop a process between steps, permanently.

On an *interval substrate* -- an attached
:class:`~repro.memory.disk.Disk` (the SAN deployment of Section 1) or
the :class:`~repro.memory.emulated.EmulatedMemory` backend -- every
register read and write becomes an interval: one blocking-operation
path hands it to the substrate's ``emu_read`` / ``emu_write``, and the
process stays blocked until the substrate's completion callback
resumes it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.core.interfaces import (
    AlgorithmContext,
    FetchAdd,
    LocalStep,
    OmegaAlgorithm,
    ReadReg,
    SetTimer,
    Task,
    WriteReg,
)
from repro.memory.backend import create_memory
from repro.memory.disk import Disk
from repro.memory.emulated import EmulatedMemory
from repro.memory.memory import SharedMemory
from repro.sim.crash import CrashPlan
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.schedulers import StepDelayModel, UniformDelay
from repro.sim.tracing import RunTrace
from repro.timers.awb import AsymptoticallyWellBehavedTimer, TimerBehavior
from repro.timers.functions import LinearF
from repro.timers.service import TimerService


@dataclass
class _TaskState:
    """One task coroutine plus the value to send on its next turn."""

    gen: Task
    name: str
    inbox: Any = None
    started: bool = False


class ProcessRuntime:
    """Drives one process: task multiplexing, stepping, crash, timers.

    The step loop is the simulation's hottest code, so :meth:`step`
    fuses its common path: the crash check is one comparison against
    the pid's crash time (a :class:`CrashPlan` is frozen, so the time
    is read once here), a ``ReadReg`` on the plain shared backend and
    a ``LocalStep`` are applied inline, and the reschedule is one
    positional ``schedule_after`` call.  Everything else -- writes,
    timers, fetch&add, and *every* register read and write on an
    interval substrate (one pair of handlers for the disk and the
    emulation alike) -- goes through an exact-type dispatch table
    (``type(op) -> handler``).  Operation classes are final frozen
    dataclasses (:mod:`repro.core.interfaces`), so exact-type tests are
    safe.
    """

    def __init__(self, run: "Run", pid: int, algorithm: OmegaAlgorithm) -> None:
        self.run = run
        self.pid = pid
        self.algorithm = algorithm
        self.tasks: deque[_TaskState] = deque()
        self.tasks.append(_TaskState(algorithm.main_task(), "T2"))
        for idx, gen in enumerate(algorithm.extra_tasks()):
            self.tasks.append(_TaskState(gen, f"extra{idx}"))
        self.crashed = False
        self.blocked = False
        self.timer_expirations = 0
        # Pre-bound hot-path collaborators.
        self._sim = run.sim
        self._step_cb = self.step
        self._delay_of = run.delay_model.delay
        self._schedule_after = run.sim.schedule_after
        self._crash_at = run.crash_plan.crash_time(pid)
        # Exact-type operation dispatch.  A handler returns True when the
        # interval substrate's completion callback reschedules the
        # process's continuation instead.
        self._dispatch: Dict[type, Callable[[_TaskState, Any], Any]] = {
            WriteReg: self._op_write,
            SetTimer: self._op_set_timer,
            FetchAdd: self._op_fetch_add,
        }
        interval = run.disk if run.disk is not None else run.memory
        if isinstance(interval, (Disk, EmulatedMemory)):
            self._interval = interval
            self._dispatch[ReadReg] = self._op_read_interval
            self._dispatch[WriteReg] = self._op_write_interval
        if isinstance(interval, EmulatedMemory):
            # A quorum read-then-write; on a disk it stays instantaneous.
            self._dispatch[FetchAdd] = self._op_fetch_add_emulated
        #: The op class ``step`` applies inline: instantaneous reads of
        #: the plain shared backend.  Interval backends dispatch instead.
        self._inline_read = None if ReadReg in self._dispatch else ReadReg

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the initial timer and schedule the first step."""
        timeout = self.algorithm.initial_timeout()
        if timeout is not None:
            self.run.timer_service.set_timer(self.pid, timeout, self.on_timer)
        self._schedule_next_step()

    def crash(self) -> None:
        """Crash-stop: no further step or timer action, ever."""
        self.crashed = True
        self.run.timer_service.cancel(self.pid)

    def on_timer(self) -> None:
        """Timer expiry: enqueue a fresh ``T3`` task."""
        if self.crashed:
            return
        self.timer_expirations += 1
        handle = self.run.timer_service.active_timer(self.pid)
        if handle is not None:
            self.run.trace.record_timer_fired(
                self._sim._now, self.pid, handle.fires_at - handle.set_at
            )
        gen = self.algorithm.timer_task()
        if gen is not None:
            self.tasks.append(_TaskState(gen, "T3"))

    # ------------------------------------------------------------------
    def _schedule_next_step(self) -> None:
        delay = self._delay_of(self.pid, self._sim._now)
        if delay <= 0:
            raise ValueError(f"step-delay model returned non-positive delay {delay}")
        self._schedule_after(delay, self._step_cb, kind="step", pid=self.pid)

    def step(self) -> None:
        """Execute one operation of the front task."""
        if self.crashed or self.blocked:
            return
        sim = self._sim
        if sim._now >= self._crash_at:
            self.crash()
            return
        tasks = self.tasks
        if not tasks:
            return  # all tasks exhausted; process is passive (not crashed)
        task = tasks[0]
        try:
            if task.started:
                op = task.gen.send(task.inbox)
            else:
                task.started = True
                op = next(task.gen)
        except StopIteration:
            tasks.popleft()
            self._schedule_next_step()
            return
        pid = self.pid
        kind = op.__class__
        if kind is self._inline_read:
            task.inbox = op.register.read(pid)
        else:
            task.inbox = None
            if kind is not LocalStep:
                handler = self._dispatch.get(kind)
                if handler is None:  # pragma: no cover - defensive
                    raise TypeError(f"unknown operation {op!r}")
                if handler(task, op):
                    return  # interval operation: its completion reschedules
        if tasks[-1] is not task:  # a lone task needs no rotation
            tasks.rotate(-1)
        delay = self._delay_of(pid, sim._now)
        if delay <= 0:
            raise ValueError(f"step-delay model returned non-positive delay {delay}")
        self._schedule_after(delay, self._step_cb, "step", pid)

    # ------------------------------------------------------------------
    # Operation handlers (exact-type dispatch targets)
    # ------------------------------------------------------------------
    def _op_write(self, task: _TaskState, op: WriteReg) -> None:
        op.register.write(self.pid, op.value)

    def _op_fetch_add(self, task: _TaskState, op: FetchAdd) -> None:
        task.inbox = op.register.fetch_add(self.pid, op.amount)

    def _op_set_timer(self, task: _TaskState, op: SetTimer) -> None:
        run = self.run
        run.timer_service.set_timer(self.pid, op.timeout, self.on_timer)
        run.trace.record_timer_set(self._sim._now, self.pid, op.timeout)

    # ------------------------------------------------------------------
    # Interval handlers (disk accesses and ABD quorum phases alike)
    # ------------------------------------------------------------------
    def _resume(self, task: _TaskState) -> Callable[[Any], None]:
        """Completion callback: unblock, deliver the value, reschedule.

        An interval operation outlives its invoker: a disk access still
        linearizes and a quorum write still completes if the process
        crashed mid-interval -- only the process's continuation is
        suppressed.
        """

        def resume(value: Any) -> None:
            self.blocked = False
            if self.crashed:
                return
            task.inbox = value
            self.tasks.rotate(-1)
            self._schedule_next_step()

        return resume

    def _op_read_interval(self, task: _TaskState, op: ReadReg) -> bool:
        self.blocked = True
        self._interval.emu_read(self.pid, op.register, self._resume(task))
        return True

    def _op_write_interval(self, task: _TaskState, op: WriteReg) -> bool:
        self.blocked = True
        self._interval.emu_write(self.pid, op.register, op.value, self._resume(task))
        return True

    def _op_fetch_add_emulated(self, task: _TaskState, op: FetchAdd) -> bool:
        self.blocked = True
        self.run.memory.emu_fetch_add(self.pid, op.register, op.amount, self._resume(task))
        return True


# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """Everything a finished run produced."""

    algorithm_name: str
    n: int
    horizon: float
    seed: int
    trace: RunTrace
    memory: SharedMemory
    sim: Simulator
    crash_plan: CrashPlan
    algorithms: List[OmegaAlgorithm]
    timer_service: TimerService
    disk: Optional[Disk]
    snapshots: List[Tuple[float, Tuple[Tuple[str, Any], ...]]] = field(default_factory=list)
    #: Which memory backend produced this run ("shared" or "emulated").
    memory_backend: str = "shared"

    # Convenience delegations to the analysis layer --------------------
    def stabilization(self, margin: float = 0.0) -> "Any":
        """Eventual-leadership verdict (see :mod:`repro.analysis.omega_props`)."""
        from repro.analysis.omega_props import check_eventual_leadership

        return check_eventual_leadership(self.trace, self.crash_plan, self.horizon, margin=margin)

    def final_leaders(self) -> Dict[int, int]:
        """Last sampled ``leader()`` output of each correct process (the
        ``final_by_pid`` of :meth:`stabilization`, which owns the rule
        for who counts as correct)."""
        return self.stabilization().final_by_pid

    def audit_consistency(self) -> "Any":
        """Consistency audit of the recorded emulated history.

        Returns a
        :class:`~repro.memory.linearizability.LinearizabilityReport`
        checked at the run's own consistency level (atomic histories
        against full linearizability, regular ones against regularity),
        or ``None`` when there is nothing to audit -- a non-emulated
        backend, or a run whose emulation config left
        ``record_history`` off.
        """
        mem = self.memory
        if not isinstance(mem, EmulatedMemory) or not mem.config.record_history:
            return None
        from repro.memory.linearizability import (
            check_atomic_history,
            check_regular_history,
        )

        history = mem.recorded_history()
        if mem.config.consistency == "atomic":
            return check_atomic_history(history)
        return check_regular_history(history)

    def check_properties(
        self,
        *,
        assumption: str = "awb",
        margin: float = 0.0,
        window: float = 100.0,
    ) -> "Any":
        """Theorem 1-4 audit of this run (see :mod:`repro.props`)."""
        from repro.props.report import check_properties

        return check_properties(
            self, assumption=assumption, margin=margin, window=window
        )

    def summarize(
        self,
        *,
        scenario_name: str = "",
        margin: float = 0.0,
        window: float = 100.0,
        assumption: str = "awb",
    ) -> "Any":
        """Condense this result into a compact, picklable
        :class:`~repro.engine.summary.RunSummary` -- the in-place path
        the parallel engine's workers use instead of shipping the whole
        result bundle across process boundaries."""
        from repro.engine.summary import summarize_run

        return summarize_run(
            self,
            scenario_name=scenario_name,
            margin=margin,
            window=window,
            assumption=assumption,
        )


def check_run_shape(
    n: int,
    horizon: float,
    sample_interval: float,
    snapshot_interval: Optional[float],
    memory: str,
    has_disk: bool,
) -> None:
    """Refuse a run that cannot be built: fewer than two processes, a
    non-positive or non-finite span, or the emulated backend on top of
    the SAN disk.  :class:`Run` and
    :class:`~repro.workloads.scenarios.Scenario` both call it, so a bad
    cell is refused when it is described, before anything is simulated."""
    if n < 2:
        raise ValueError("need at least two processes")
    spans = {
        "horizon": horizon,
        "sample_interval": sample_interval,
        "snapshot_interval": snapshot_interval,
    }
    for name, value in spans.items():
        # A zero interval would reschedule its observer at `now` forever.
        if value is not None and not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    if memory == "emulated" and has_disk:
        raise ValueError(
            "the emulated backend and the SAN disk model both make register "
            "accesses interval operations; pick one"
        )


class Run:
    """A configured, reproducible execution.

    Parameters
    ----------
    algorithm_cls:
        The :class:`OmegaAlgorithm` subclass to run.
    n:
        Number of processes (>= 2).
    seed:
        Run seed; every random stream derives from it.
    horizon:
        Virtual-time end of the run.
    delay_model:
        Step-delay model; defaults to mild uniform asynchrony.
    timer_behaviors:
        Per-pid timer behaviours; default is an immediately
        well-behaved AWB timer with ``f(x) = x`` (no chaotic prefix).
    crash_plan:
        Defaults to fault-free.
    sample_interval:
        Observer ``leader()`` sampling period.
    snapshot_interval:
        If set, record full shared-memory snapshots at this period
        (Theorem 5 harness).
    disk:
        Optional SAN model; when present every register read and write
        is an interval operation (``Run`` attaches it to its simulator).
    scramble:
        Optional hook ``scramble(memory, rng)`` run after layout
        creation and before instances are built -- used to set arbitrary
        initial register values (self-stabilization, footnote 7).
    algo_config:
        Passed to the algorithm via ``AlgorithmContext.config``.
    log_reads:
        Forwarded to :class:`SharedMemory`.
    trace_events:
        Forwarded to :class:`~repro.sim.kernel.Simulator`; disable to
        skip per-kind event accounting on the hot path (the engine's
        low-overhead run mode).
    memory:
        Memory backend name (:data:`repro.memory.backend.BACKENDS`):
        ``"shared"`` (instantaneous registers, the default) or
        ``"emulated"`` (ABD quorum emulation over message passing, in
        which case every register access becomes an interval operation
        like the disk path).
    emulation:
        Plain-dict :class:`~repro.memory.emulated.EmulationConfig`
        knobs for the emulated backend (replica count, link model,
        consistency level, membership plan, replica crashes); only
        valid with ``memory="emulated"``.  The run-wide override axes
        (``repro run|sweep --consistency`` / ``--membership``) are
        folded into this dict by
        :meth:`~repro.workloads.scenarios.Scenario.overridden` before a
        ``Run`` is built.
    """

    def __init__(
        self,
        algorithm_cls: Type[OmegaAlgorithm],
        n: int,
        *,
        seed: int = 0,
        horizon: float = 2000.0,
        delay_model: Optional[StepDelayModel] = None,
        timer_behaviors: Optional[Dict[int, TimerBehavior]] = None,
        crash_plan: Optional[CrashPlan] = None,
        sample_interval: float = 5.0,
        snapshot_interval: Optional[float] = None,
        disk: Optional[Disk] = None,
        scramble: Optional[Callable[[SharedMemory, Any], None]] = None,
        algo_config: Optional[Dict[str, Any]] = None,
        log_reads: bool = True,
        trace_events: bool = True,
        memory: str = "shared",
        emulation: Optional[Dict[str, Any]] = None,
    ) -> None:
        check_run_shape(n, horizon, sample_interval, snapshot_interval, memory, disk is not None)
        self.algorithm_cls = algorithm_cls
        self.n = n
        self.seed = seed
        self.horizon = horizon
        self.sample_interval = sample_interval
        self.snapshot_interval = snapshot_interval
        self.disk = disk
        self.rng = RngRegistry(seed)

        sim = self.sim = Simulator(trace_events=trace_events)
        if disk is not None:
            disk.attach(sim)

        def clock() -> float:
            # One call deep: every counted register access stamps the time.
            return sim._now

        self.memory_backend = memory
        self.memory = create_memory(
            memory,
            clock=clock,
            log_reads=log_reads,
            sim=self.sim,
            rng=self.rng,
            emulation=emulation,
        )
        self.delay_model: StepDelayModel = delay_model or UniformDelay(self.rng, 0.5, 1.5)
        self.crash_plan = crash_plan or CrashPlan.none(n)
        self.trace = RunTrace()
        config = dict(algo_config or {})

        behaviors: Dict[int, TimerBehavior] = dict(timer_behaviors or {})
        for pid in range(n):
            if pid not in behaviors:
                behaviors[pid] = AsymptoticallyWellBehavedTimer(
                    LinearF(1.0), self.rng, chaos_until=0.0, jitter=0.25
                )
        self.timer_service = TimerService(self.sim, behaviors)

        shared = algorithm_cls.create_shared(self.memory, n, config)
        if scramble is not None:
            scramble(self.memory, self.rng.stream("scramble"))
        self.algorithms: List[OmegaAlgorithm] = []
        for pid in range(n):
            ctx = AlgorithmContext(
                pid=pid,
                n=n,
                clock=clock,
                rng=self.rng.stream(f"algo:{pid}"),
                config=config,
            )
            self.algorithms.append(algorithm_cls(ctx, shared))
        self.runtimes = [ProcessRuntime(self, pid, alg) for pid, alg in enumerate(self.algorithms)]
        self.snapshots: List[Tuple[float, Tuple[Tuple[str, Any], ...]]] = []

    # ------------------------------------------------------------------
    def _install_crashes(self) -> None:
        for pid in range(self.n):
            t = self.crash_plan.crash_time(pid)
            if t <= self.horizon:
                runtime = self.runtimes[pid]

                def crash(rt: ProcessRuntime = runtime, when: float = t) -> None:
                    rt.crash()
                    self.trace.record(when, "crash", pid=rt.pid)

                self.sim.schedule_at(t, crash, kind="crash", pid=pid)

    def _sample(self) -> None:
        now = self.sim.now
        record = self.trace.record_leader_sample
        algorithms = self.algorithms
        for pid, runtime in enumerate(self.runtimes):
            if not runtime.crashed:
                record(now, pid, algorithms[pid].peek_leader())
        nxt = now + self.sample_interval
        if nxt <= self.horizon:
            self.sim.schedule_at(nxt, self._sample, kind="sample")

    def _snapshot(self) -> None:
        assert self.snapshot_interval is not None
        self.snapshots.append((self.sim.now, self.memory.snapshot()))
        nxt = self.sim.now + self.snapshot_interval
        if nxt <= self.horizon:
            self.sim.schedule_at(nxt, self._snapshot, kind="snapshot")

    # ------------------------------------------------------------------
    def execute(self, max_events: Optional[int] = None) -> RunResult:
        """Run to the horizon and return the result bundle."""
        self._install_crashes()
        if isinstance(self.memory, EmulatedMemory):
            # Seed the replicas from the (possibly scrambled) initial
            # register values and schedule replica crashes.
            self.memory.start(self.horizon)
        for runtime in self.runtimes:
            runtime.start()
        self.sim.schedule_at(0.0, self._sample, kind="sample")
        if self.snapshot_interval is not None:
            self.sim.schedule_at(0.0, self._snapshot, kind="snapshot")
        self.sim.run(until=self.horizon, max_events=max_events)
        # Final observer sample at the horizon.
        for pid, runtime in enumerate(self.runtimes):
            if not runtime.crashed:
                self.trace.record_leader_sample(
                    self.horizon, pid, self.algorithms[pid].peek_leader()
                )
        return RunResult(
            algorithm_name=self.algorithm_cls.display_name,
            n=self.n,
            horizon=self.horizon,
            seed=self.seed,
            trace=self.trace,
            memory=self.memory,
            sim=self.sim,
            crash_plan=self.crash_plan,
            algorithms=self.algorithms,
            timer_service=self.timer_service,
            disk=self.disk,
            snapshots=self.snapshots,
            memory_backend=self.memory_backend,
        )


__all__ = ["ProcessRuntime", "Run", "RunResult", "check_run_shape"]
