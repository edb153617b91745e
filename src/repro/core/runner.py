"""Run assembly: algorithm + kernel + substrate + crash plan.

A :class:`Run` wires one algorithm class into the substrates its
family drives and runs it to a horizon; the outcome is a
:class:`RunResult` bundling the observer's leader samples, the
shared-memory access log, and everything the analysis layer needs.
Each fact is recorded once: leader samples in the
:class:`~repro.sim.tracing.RunTrace`, timer armings in each timer
behaviour's history, crashes in the run's crash plan (cut to the
horizon).  Every run is a pure function of its configuration and seed.

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

A *message-passing* algorithm -- an
:class:`~repro.netsim.runtime.MpProcess` subclass, one of the
related-work Omegas -- runs under the same :class:`Run`, assembled for
its family: the run builds a :class:`~repro.netsim.network.Network`
over its simulator and drives each process with an
:class:`~repro.netsim.runtime.MpProcessRuntime` (message and timer
handlers instead of step coroutines), and builds no registers, no
step-delay model and no timer service.  The crash installer, the
observer, the end-of-run release and the :class:`RunResult` serve both
families.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Type, Union

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
from repro.memory.disk import Disk
from repro.memory.emulated import EmulatedMemory, EmulationConfig
from repro.memory.memory import SharedMemory
from repro.netsim.network import ChannelBehavior, Network, TimelyLinks
from repro.netsim.runtime import MpProcess, MpProcessRuntime, attach_runtimes
from repro.sim.crash import CrashPlan
from repro.sim.events import intern_kind
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.schedulers import StepDelayModel, UniformDelay
from repro.sim.tracing import RunTrace
from repro.timers.awb import AsymptoticallyWellBehavedTimer, TimerBehavior
from repro.timers.functions import LinearF
from repro.timers.service import TimerService

#: The observer's "no sample yet" leader: unequal to any ``leader()`` output.
_UNSAMPLED = object()

#: The kind id of every step entry the step loop files.
_STEP_KIND = intern_kind("step")

#: Memory backend name -> one-line description (the ``--memory`` choices).
#: Every backend is a :class:`~repro.memory.memory.SharedMemory`: the
#: emulation subclasses it and replaces only the operation semantics.
BACKENDS: Dict[str, str] = {
    "shared": "atomic registers linearizing instantaneously (the paper's model)",
    "emulated": "ABD-style quorum emulation of the registers over netsim message passing",
}

#: What a register run's runtimes block on for every register access:
#: the SAN disk or the ABD emulation (``None`` on plain shared registers).
IntervalSubstrate = Union[Disk, EmulatedMemory]


@dataclass
class _TaskState:
    """One task coroutine plus the value to send on its next turn
    (``None`` on the first, which starts the generator)."""

    gen: Task
    name: str
    inbox: Any = None


class ProcessRuntime:
    """Drives one process: task multiplexing, stepping, crash, timers.

    The step loop is the simulation's hottest code, so :meth:`step`
    fuses its common path: the crash check is one comparison against
    the pid's crash time (a :class:`CrashPlan` is frozen, so the time
    is read once here), a ``ReadReg`` on the plain shared backend and
    a ``LocalStep`` are applied inline, and the reschedule files its
    entry with one ``Simulator.push`` (the step loop is one of the
    kernel's raw producers, so it refuses a bad delay itself).
    Everything else -- writes, timers, fetch&add, and *every* register
    read and write on an
    interval substrate (one pair of handlers for the disk and the
    emulation alike) -- goes through an exact-type dispatch table
    (``type(op) -> handler``).  Operation classes are final frozen
    dataclasses (:mod:`repro.core.interfaces`), so exact-type tests are
    safe.

    A runtime is handed its collaborators -- the simulator, the delay
    model, the timer service, the interval substrate and the run's one
    dispatch table (:func:`_dispatch_table`) -- and holds no reference
    to its :class:`Run`; the dispatch table maps op classes to plain
    functions, not to methods bound to this runtime.  The
    self-references left are the pre-bound step callback, which the hot
    loop reschedules without allocating, and the pre-bound completion
    callback every interval operation hands its substrate;
    :meth:`release` drops both when the run ends.
    """

    def __init__(
        self,
        pid: int,
        algorithm: OmegaAlgorithm,
        *,
        sim: Simulator,
        delay_model: StepDelayModel,
        timer_service: TimerService,
        crash_at: float,
        dispatch: Dict[type, Callable[[ProcessRuntime, _TaskState, Any], Any]],
        interval: Optional[IntervalSubstrate],
    ) -> None:
        self.pid = pid
        self.algorithm = algorithm
        self.tasks: deque[_TaskState] = deque()
        self.tasks.append(_TaskState(algorithm.main_task(), "T2"))
        for idx, gen in enumerate(algorithm.extra_tasks()):
            self.tasks.append(_TaskState(gen, f"extra{idx}"))
        self.crashed = False
        self.blocked = False
        self.timer_expirations = 0
        self._timer_service = timer_service
        # Pre-bound hot-path collaborators.
        self._sim = sim
        self._step_cb: Optional[Callable[[], None]] = self.step
        self._resume_cb: Optional[Callable[[Any], None]] = self._resume
        self._delay_of = delay_model.delay
        self._push = sim.push
        self._seq = sim.next_seq
        self._crash_at = crash_at
        self._dispatch = dispatch
        self._interval = interval
        #: The op class ``step`` applies inline: instantaneous reads of
        #: the plain shared backend.  Interval backends dispatch instead.
        self._inline_read = None if ReadReg in dispatch else ReadReg

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the initial timer and schedule the first step."""
        timeout = self.algorithm.initial_timeout()
        if timeout is not None:
            self._timer_service.set_timer(self.pid, timeout, self.on_timer)
        self._schedule_next_step()

    def release(self) -> None:
        """End of run: drop the pre-bound step and completion callbacks,
        this runtime's references to itself.  Called by
        :meth:`Run.execute` after the simulator released its queue; the
        runtime steps no more."""
        self._step_cb = None
        self._resume_cb = None

    def crash(self) -> None:
        """Crash-stop: no further step or timer action, ever."""
        self.crashed = True
        self._timer_service.cancel(self.pid)

    def on_timer(self) -> None:
        """Timer expiry: enqueue a fresh ``T3`` task."""
        if self.crashed:
            return
        self.timer_expirations += 1
        gen = self.algorithm.timer_task()
        if gen is not None:
            self.tasks.append(_TaskState(gen, "T3"))

    # ------------------------------------------------------------------
    def _schedule_next_step(self) -> None:
        now = self._sim._now
        delay = self._delay_of(self.pid, now)
        if not delay > 0:  # also rejects NaN
            raise ValueError(f"step-delay model returned non-positive or NaN delay {delay}")
        self._push((now + delay, self._seq(), _STEP_KIND, self.pid, self._step_cb, None))

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
            op = task.gen.send(task.inbox)
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
                if handler(self, task, op):
                    return  # interval operation: its completion reschedules
        if tasks[-1] is not task:  # a lone task needs no rotation
            tasks.rotate(-1)
        now = sim._now
        delay = self._delay_of(pid, now)
        if not delay > 0:  # also rejects NaN
            raise ValueError(f"step-delay model returned non-positive or NaN delay {delay}")
        self._push((now + delay, self._seq(), _STEP_KIND, pid, self._step_cb, None))

    # ------------------------------------------------------------------
    # Operation handlers (exact-type dispatch targets)
    # ------------------------------------------------------------------
    def _op_write(self, task: _TaskState, op: WriteReg) -> None:
        op.register.write(self.pid, op.value)

    def _op_fetch_add(self, task: _TaskState, op: FetchAdd) -> None:
        task.inbox = op.register.fetch_add(self.pid, op.amount)

    def _op_set_timer(self, task: _TaskState, op: SetTimer) -> None:
        self._timer_service.set_timer(self.pid, op.timeout, self.on_timer)

    # ------------------------------------------------------------------
    # Interval handlers (disk accesses and ABD quorum phases alike)
    # ------------------------------------------------------------------
    def _resume(self, value: Any) -> None:
        """Completion callback: unblock, deliver the value, reschedule.

        The blocked task is always the front one: a blocked process
        takes no step, so nothing rotates the queue, and a timer only
        appends.  An interval operation outlives its invoker: a disk
        access still linearizes and a quorum write still completes if
        the process crashed mid-interval -- only the process's
        continuation is suppressed.
        """
        self.blocked = False
        if self.crashed:
            return
        tasks = self.tasks
        tasks[0].inbox = value
        tasks.rotate(-1)
        self._schedule_next_step()

    def _op_read_interval(self, task: _TaskState, op: ReadReg) -> bool:
        self.blocked = True
        self._interval.emu_read(self.pid, op.register, self._resume_cb)
        return True

    def _op_write_interval(self, task: _TaskState, op: WriteReg) -> bool:
        self.blocked = True
        self._interval.emu_write(self.pid, op.register, op.value, self._resume_cb)
        return True

    def _op_fetch_add_emulated(self, task: _TaskState, op: FetchAdd) -> bool:
        self.blocked = True
        self._interval.emu_fetch_add(self.pid, op.register, op.amount, self._resume_cb)
        return True


def _dispatch_table(
    interval: Optional[IntervalSubstrate], emulated: bool
) -> Dict[type, Callable[[ProcessRuntime, _TaskState, Any], Any]]:
    """A register run's exact-type operation dispatch, built once per
    run and shared by its runtimes: ``handler(runtime, task, op)``.  A
    handler returns True when the interval substrate's completion
    callback reschedules the process's continuation instead.  With an
    interval substrate every register read and write is an interval;
    ``FetchAdd`` is a quorum read-then-write on the emulation and stays
    instantaneous on a disk."""
    table: Dict[type, Callable[[ProcessRuntime, _TaskState, Any], Any]] = {
        WriteReg: ProcessRuntime._op_write,
        SetTimer: ProcessRuntime._op_set_timer,
        FetchAdd: ProcessRuntime._op_fetch_add,
    }
    if interval is not None:
        table[ReadReg] = ProcessRuntime._op_read_interval
        table[WriteReg] = ProcessRuntime._op_write_interval
    if emulated:
        table[FetchAdd] = ProcessRuntime._op_fetch_add_emulated
    return table


def _no_hook() -> None:
    """A substrate with nothing to start or release."""


# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """Everything a finished run produced.

    ``trace`` holds the observer's leader samples; the timers' realized
    durations are in ``timer_service.behavior(pid).history``; and
    ``crash_plan`` holds exactly the crashes that happened, those
    planned at or before ``horizon``.  A message-passing run's
    ``algorithms`` are its :class:`~repro.netsim.runtime.MpProcess`
    instances and ``network`` its message fabric (``None`` for every
    other run; an emulated backend keeps its own in ``memory``); it has
    no registers and no timer service, so its ``memory`` and
    ``timer_service`` are ``None``.
    """

    algorithm_name: str
    n: int
    horizon: float
    seed: int
    trace: RunTrace
    memory: Optional[SharedMemory]
    sim: Simulator
    crash_plan: CrashPlan
    algorithms: List[Union[OmegaAlgorithm, MpProcess]]
    timer_service: Optional[TimerService]
    disk: Optional[Disk]
    snapshots: List[Tuple[float, Tuple[Tuple[str, Any], ...]]] = field(default_factory=list)
    #: Which memory backend produced this run ("shared" or "emulated").
    memory_backend: str = "shared"
    network: Optional[Network] = None

    # Convenience delegations to the analysis layer --------------------
    def stabilization(self, margin: float = 0.0) -> "Any":
        """The Theorem 1 (Eventual Leadership) verdict: a
        :class:`~repro.props.checkers.LeadershipVerdict`."""
        from repro.props.checkers import leadership_verdict

        return leadership_verdict(self.trace, self.crash_plan, self.horizon, margin=margin)

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
        """Theorem 1-4 audit of this run (see :mod:`repro.props`).

        A message-passing run is refused (``ValueError``): it has no
        registers to judge; :meth:`stabilization` is its verdict.
        """
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
        result bundle across process boundaries.  Refused for a
        message-passing run, like :meth:`check_properties`."""
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
    emulation: Optional[Mapping[str, Any]],
    has_disk: bool,
) -> Optional[EmulationConfig]:
    """Refuse a run that cannot be built: fewer than two processes, a
    non-positive or non-finite span, a backend not in :data:`BACKENDS`,
    emulation knobs on the shared backend (dead configuration), the
    emulated backend on top of the SAN disk, or emulation knobs that
    :meth:`EmulationConfig.from_dict` refuses.  :class:`Run` and
    :class:`~repro.workloads.scenarios.Scenario` both call it, so a bad
    cell is refused when it is described, before anything is simulated.

    Returns the decoded emulation config of an emulated run (``None``
    on the shared backend)."""
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
    if memory not in BACKENDS:
        raise ValueError(
            f"unknown memory backend {memory!r}; choose from {sorted(BACKENDS)}"
        )
    if memory == "shared" and emulation:
        raise ValueError(
            "emulation options were provided but the backend is 'shared'; "
            "pass memory='emulated' or drop the options"
        )
    if memory != "emulated":
        return None
    if has_disk:
        raise ValueError(
            "the emulated backend and the SAN disk model both make register "
            "accesses interval operations; pick one"
        )
    return EmulationConfig.from_dict(emulation or {})


class Run:
    """A configured, reproducible execution.

    Parameters
    ----------
    algorithm_cls:
        The :class:`OmegaAlgorithm` subclass to run, or a
        message-passing :class:`~repro.netsim.runtime.MpProcess`
        subclass (it talks over ``channel``; its run builds no
        registers, step-delay model or timer service).
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
        Defaults to fault-free.  A crash planned beyond ``horizon``
        never happens, so the run keeps only the crashes at or before
        it: its pid is correct for every verdict.
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
        Memory backend name (a key of :data:`BACKENDS`):
        ``"shared"`` (instantaneous registers, the default) or
        ``"emulated"`` (ABD quorum emulation over message passing, in
        which case every register access becomes an interval operation
        like the disk path).
    channel:
        The link model of a message-passing algorithm's network;
        defaults to :class:`~repro.netsim.network.TimelyLinks`.  Only
        valid with an :class:`~repro.netsim.runtime.MpProcess` class,
        which in turn refuses every shared-memory argument:
        ``delay_model``, ``timer_behaviors``, ``scramble``, ``disk``,
        ``emulation``, ``snapshot_interval`` and a ``memory`` other than
        ``"shared"``.
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
        algorithm_cls: Union[Type[OmegaAlgorithm], Type[MpProcess]],
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
        channel: Optional[ChannelBehavior] = None,
    ) -> None:
        message_passing = issubclass(algorithm_cls, MpProcess)
        if message_passing:
            shared_only = {
                "delay_model": delay_model,
                "timer_behaviors": timer_behaviors,
                "scramble": scramble,
                "disk": disk,
                "memory": None if memory == "shared" else memory,
                "emulation": emulation,
                "snapshot_interval": snapshot_interval,
            }
            given = [name for name, value in shared_only.items() if value is not None]
            if given:
                raise ValueError(
                    f"{algorithm_cls.__name__} is message-passing and takes no "
                    f"shared-memory argument: got {', '.join(given)}"
                )
        has_disk = disk is not None
        knobs = check_run_shape(n, horizon, sample_interval, snapshot_interval, memory, emulation, has_disk)
        self.algorithm_cls = algorithm_cls
        self.n = n
        self.seed = seed
        self.horizon = horizon
        self.sample_interval = sample_interval
        self.snapshot_interval = snapshot_interval
        self.disk = disk
        self.memory_backend = memory
        self.rng = RngRegistry(seed)
        self.sim = Simulator(trace_events=trace_events)
        self.crash_plan = (crash_plan or CrashPlan.none(n)).until(horizon)
        self.trace = RunTrace()
        self._pids = range(n)
        #: Each pid's last sampled ``leader()`` output (the observer's
        #: run-length state; ``_UNSAMPLED`` before its first sample).
        self._last_leader: List[Any] = [_UNSAMPLED] * n
        self.snapshots: List[Tuple[float, Tuple[Tuple[str, Any], ...]]] = []
        config = dict(algo_config or {})

        # One assembly per substrate family: each builds only what its
        # family drives and sets the substrate's start and release.
        self.memory: Optional[SharedMemory] = None
        self.timer_service: Optional[TimerService] = None
        self.network: Optional[Network] = None
        self._start_substrate: Callable[[], None] = _no_hook
        self._release_substrate: Callable[[], None] = _no_hook
        self.algorithms: List[Union[OmegaAlgorithm, MpProcess]]
        self.runtimes: Sequence[Union[ProcessRuntime, MpProcessRuntime]]
        if message_passing:
            self._assemble_message_passing(channel, config)
        elif channel is not None:
            raise ValueError("channel applies only to a message-passing algorithm")
        else:
            self._assemble_registers(delay_model, timer_behaviors, scramble, config, log_reads, knobs)

    def _assemble_registers(
        self,
        delay_model: Optional[StepDelayModel],
        timer_behaviors: Optional[Dict[int, TimerBehavior]],
        scramble: Optional[Callable[[SharedMemory, Any], None]],
        config: Dict[str, Any],
        log_reads: bool,
        knobs: Optional[EmulationConfig],
    ) -> None:
        """Shared, SAN-disk and emulated runs: the registers, the
        step-delay model, the timer service and one
        :class:`ProcessRuntime` per process.  The three differ only in
        the interval substrate a runtime blocks on -- none, the disk or
        the emulation -- and that substrate fixes the run's one
        dispatch table."""
        sim, rng, n = self.sim, self.rng, self.n

        def clock() -> float:
            # One call deep: every counted register access stamps the time.
            return sim._now

        interval: Optional[IntervalSubstrate]
        if knobs is not None:
            memory = self.memory = interval = EmulatedMemory(
                clock=clock, sim=sim, rng=rng, config=knobs, log_reads=log_reads
            )
            # Seeded from the (possibly scrambled) initial register
            # values when the run starts; replica crashes scheduled then.
            self._start_substrate = partial(memory.start, self.horizon)
            self._release_substrate = memory.release
        else:
            memory = self.memory = SharedMemory(clock=clock, log_reads=log_reads)
            interval = self.disk
            if interval is not None:
                interval.attach(sim)

        behaviors: Dict[int, TimerBehavior] = dict(timer_behaviors or {})
        for pid in range(n):
            if pid not in behaviors:
                behaviors[pid] = AsymptoticallyWellBehavedTimer(
                    LinearF(1.0), rng, chaos_until=0.0, jitter=0.25
                )
        timer_service = self.timer_service = TimerService(sim, behaviors)

        shared = self.algorithm_cls.create_shared(memory, n, config)
        if scramble is not None:
            scramble(memory, rng.stream("scramble"))
        contexts = [
            AlgorithmContext(pid=pid, n=n, clock=clock, rng=rng.stream(f"algo:{pid}"), config=config)
            for pid in range(n)
        ]
        self.algorithms = [self.algorithm_cls(ctx, shared) for ctx in contexts]
        dispatch = _dispatch_table(interval, knobs is not None)
        delay_model = delay_model or UniformDelay(rng, 0.5, 1.5)
        self.runtimes = [
            ProcessRuntime(
                pid, alg, sim=sim, delay_model=delay_model, timer_service=timer_service,
                crash_at=self.crash_plan.crash_time(pid), dispatch=dispatch, interval=interval,
            )
            for pid, alg in enumerate(self.algorithms)
        ]

    def _assemble_message_passing(
        self, channel: Optional[ChannelBehavior], config: Dict[str, Any]
    ) -> None:
        """A message-passing run: the network and one
        :class:`~repro.netsim.runtime.MpProcessRuntime` per process,
        nothing else.  Its release uninstalls the network's routes to
        the runtimes."""
        network = self.network = Network(self.sim, channel or TimelyLinks(self.rng))
        self.algorithms = [self.algorithm_cls(pid, self.n, config) for pid in range(self.n)]
        self.runtimes = attach_runtimes(
            self.algorithms, sim=self.sim, network=network, crash_plan=self.crash_plan
        )
        self._release_substrate = partial(network.install_routes, {})

    # ------------------------------------------------------------------
    def _install_crashes(self) -> None:
        for pid, t in sorted(self.crash_plan.crash_times.items()):
            self.sim.schedule_at(t, self.runtimes[pid].crash, kind="crash", pid=pid)

    def _sample(self, final: bool = False) -> None:
        """One observer pass: sample every live process's ``leader()``
        output, then schedule the next pass (the ``final`` one, at the
        horizon, schedules none).  Only a value that differs from the
        pid's last sample reaches the trace, as a change point."""
        now = self.horizon if final else self.sim.now
        runtimes = self.runtimes
        live = [pid for pid in self._pids if not runtimes[pid].crashed]
        trace = self.trace
        trace.open_tick(now, live)
        last = self._last_leader
        algorithms = self.algorithms
        for pid in live:
            leader = algorithms[pid].peek_leader()
            if leader != last[pid]:
                last[pid] = leader
                trace.record_change(pid, leader)
        if final:
            return
        nxt = now + self.sample_interval
        if nxt <= self.horizon:
            self.sim.schedule_at(nxt, self._sample, kind="sample")

    def _snapshot(self) -> None:
        assert self.snapshot_interval is not None and self.memory is not None
        self.snapshots.append((self.sim.now, self.memory.snapshot()))
        nxt = self.sim.now + self.snapshot_interval
        if nxt <= self.horizon:
            self.sim.schedule_at(nxt, self._snapshot, kind="snapshot")

    def _release(self) -> None:
        """Break the cycles an event-driven run needs while it runs.

        Pending events hold their owners (runtimes, timers, the
        observer, the network, the emulation's retries), and the owners
        hold the simulator; a runtime holds its own step callback (a
        message-passing one: its process holds it back); the emulation
        holds its network and its wake lane, whose callbacks hold the
        emulation; a message-passing run's network routes to its
        runtimes.  One kernel release drops every pending event, then
        the runtimes drop their own and the substrate release the
        assembly handed back (the emulation's, or the uninstall of the
        network's routes) drops the substrate's.
        Every post-run query -- the logs, the samples, the emulated
        history with its in-flight writes -- reads state this leaves in
        place.  Anything that extends a run must do so before this.
        """
        self.sim.release()
        for runtime in self.runtimes:
            runtime.release()
        self._release_substrate()

    # ------------------------------------------------------------------
    def execute(self) -> RunResult:
        """Run to the horizon and return the result bundle.

        After the final observer sample the run releases itself (see
        :meth:`_release`): the returned :class:`RunResult` holds no
        reference cycle, so dropping it frees the run's logs at once.
        """
        self._install_crashes()
        self._start_substrate()
        for runtime in self.runtimes:
            runtime.start()
        self.sim.schedule_at(0.0, self._sample, kind="sample")
        if self.snapshot_interval is not None:
            self.sim.schedule_at(0.0, self._snapshot, kind="snapshot")
        self.sim.run(until=self.horizon)
        self._sample(final=True)
        self._release()
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
            network=self.network,
        )


__all__ = ["BACKENDS", "ProcessRuntime", "Run", "RunResult", "check_run_shape"]
