"""Canonical scenarios: the workloads every experiment draws from.

Each scenario fixes the environment knobs -- asynchrony profile, timer
behaviour, crash plan, initial-value scrambling, SAN latency -- and can
instantiate a :class:`~repro.core.runner.Run` for any algorithm and
seed.  Horizons are chosen generously above the stabilization knobs so
"did not stabilize by the horizon" is meaningful evidence, not noise
(Algorithm 2's hand-shake needs roughly 10x Algorithm 1's horizon under
identical timers; see EXPERIMENTS.md).

**Composition.**  The paper's environment has three ingredients --
process speeds (AWB1), timers (AWB2), a crash pattern -- plus, for the
ABD substrate, a replica fabric.  Each is declared once, as a *part*:

* delay families: uniform (the composer's default),
  :func:`_one_timely_delay` (heavy tails around the timely set;
  :func:`_slow_leader_delay` is its large-beta preset),
  :func:`_gst_ramp_delay`, :func:`_burst_delay`;
* timer families: :func:`_timers` gives every process one instance of
  a behaviour, :func:`_awb_timers` is the AWB(f, chaos, jitter) family;
* crash families: the :class:`~repro.sim.crash.CrashPlan` constructors,
  with :func:`_leader_crash` / :func:`_cascade_crash` for the two the
  fuzzer shares;
* link profiles: :func:`_sync_links` (any deterministic-``delta``
  model), :func:`_lossy_links`, :func:`_ramp_links`.

:func:`_compose` is the one base scenario -- uniform delays, AWB
``f = 2x`` timers, no crashes, a 5 % margin, ``memory`` following
``emulation`` -- and every named factory is a *preset* over it: it
names only the parts and numbers that differ.  :func:`_twin` derives
the ``-atomic`` / ``-audit`` cells from their base factory.
:func:`fuzz_cell` composes from the same parts through the
:data:`FUZZ_DELAYS` / :data:`FUZZ_CRASHES` tables, whose keys *are* the
genome's delay and crash vocabularies (:mod:`repro.fuzz.genome`).
Factory names, signatures, defaults and docstrings are a stable
surface: ``Scenario.ref``, the engine's content hashes and every pinned
repro key on them (``tests/workloads/test_scenarios_golden.py``).
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Type

from repro.core.interfaces import OmegaAlgorithm
from repro.core.runner import Run, RunResult, check_run_shape
from repro.memory.backend import BACKENDS
from repro.memory.disk import Disk, LatencyModel
from repro.memory.emulated import CONSISTENCY_LEVELS, LINK_MODELS
from repro.memory.membership import churn_plan
from repro.memory.memory import SharedMemory
from repro.sim.crash import CrashPlan
from repro.sim.rng import RngRegistry
from repro.sim.schedulers import (
    AlternatingBurstDelay,
    ChurningTimelyDelay,
    GstRampDelay,
    HeavyTailDelay,
    PartiallySynchronousDelay,
    StepDelayModel,
    UniformDelay,
)
from repro.timers.awb import (
    AccurateTimer,
    AsymptoticallyWellBehavedTimer,
    CappedTimer,
    TimerBehavior,
)
from repro.timers.functions import LinearF, LogF, SqrtF


def scenario_factory(factory: Callable[..., "Scenario"]) -> Callable[..., "Scenario"]:
    """Attach a picklable ``(factory_name, kwargs)`` ref to every instance.

    The parallel engine rebuilds scenarios inside worker processes from
    this ref (lambdas in the ``make_*`` fields cannot be pickled).  The
    bound arguments include the factory's defaults, so the engine's
    content hashes change when a factory's defaults do -- stale cache
    entries never alias fresh ones.
    """
    sig = inspect.signature(factory)

    @functools.wraps(factory)
    def wrapper(*args: Any, **kwargs: Any) -> "Scenario":
        scen = factory(*args, **kwargs)
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        scen.ref = (factory.__name__, dict(bound.arguments))
        return scen

    return wrapper


def scramble_registers(memory: SharedMemory, rng: Any) -> None:
    """Set *arbitrary* initial register values (footnote 7).

    Booleans get random booleans, integers random small naturals; the
    algorithms must converge regardless (self-stabilization of the
    shared variables).
    """
    for reg in memory.all_registers():
        current = reg.peek()
        if isinstance(current, bool):
            reg.poke(rng.random() < 0.5)
        elif isinstance(current, int):
            reg.poke(rng.randrange(0, 8))


@dataclass
class Scenario:
    """A named, reproducible run configuration.

    Construction refuses what :class:`Run` would refuse
    (:func:`~repro.core.runner.check_run_shape`), :meth:`overridden`
    applies the run-wide override axes and :meth:`build` instantiates
    the run.
    """

    name: str
    n: int
    horizon: float
    description: str = ""
    sample_interval: float = 5.0
    snapshot_interval: Optional[float] = None
    #: Factories receive the run's RNG registry so each seed re-derives
    #: fresh, independent randomness.
    make_delay: Optional[Callable[[RngRegistry], StepDelayModel]] = None
    make_timers: Optional[Callable[[RngRegistry, int], Dict[int, TimerBehavior]]] = None
    make_crash_plan: Optional[Callable[[RngRegistry], CrashPlan]] = None
    make_disk: Optional[Callable[[RngRegistry], Disk]] = None
    scramble: Optional[Callable[[SharedMemory, Any], None]] = None
    algo_config: Dict[str, Any] = field(default_factory=dict)
    log_reads: bool = True
    trace_events: bool = True
    #: Stability margin expected of this scenario (passed to the
    #: eventual-leadership verdict by tests/benches).
    margin: float = 0.0
    #: Assumption class this environment satisfies *by construction*:
    #: ``"awb"`` (AWB1+AWB2 hold within the horizon -- the default),
    #: ``"ev-sync"`` (every process eventually timely) or ``"none"``
    #: (adversarial beyond the paper's assumptions).  The property
    #: checkers (:mod:`repro.props`) expect an algorithm's claimed
    #: theorems only when this class covers the algorithm's requirement.
    assumption: str = "awb"
    #: Memory backend the runs use (:data:`repro.memory.backend.BACKENDS`):
    #: ``"shared"`` or ``"emulated"``.
    memory: str = "shared"
    #: Plain-dict :class:`~repro.memory.emulated.EmulationConfig` knobs
    #: (replica count, link model, consistency level -- ``"regular"``
    #: single-phase reads, all the paper needs, or ``"atomic"``
    #: write-back reads --, membership plan, replica crashes); empty
    #: means the emulation defaults.  Only an emulated scenario may
    #: carry any.
    emulation: Dict[str, Any] = field(default_factory=dict)
    #: ``(factory_name, kwargs)`` attached by :func:`scenario_factory`;
    #: lets the parallel engine rebuild this scenario in a worker
    #: process.  ``None`` for hand-built instances (in-process only).
    ref: Optional[Tuple[str, Dict[str, Any]]] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        check_run_shape(
            self.n, self.horizon, self.sample_interval, self.snapshot_interval,
            self.memory, self.make_disk is not None,
        )

    def overridden(
        self,
        memory: Optional[str] = None,
        consistency: Optional[str] = None,
        membership: Optional[str] = None,
    ) -> "Scenario":
        """This scenario under the run-wide override axes
        (:data:`repro.engine.spec.OVERRIDE_AXES`; ``None`` leaves the
        scenario's own choice in force) -- the one place they are
        applied, for the engine and the CLI alike.

        ``memory`` forces a backend.  A cell that ends up on the shared
        backend drops every emulation knob (its registers are atomic by
        construction and it has no replica set to reconfigure), so
        ``consistency`` and ``membership`` only reach emulated cells:
        ``consistency`` sets the emulation's level, ``membership``
        ``"none"`` strips its membership plan and ``"churn"`` installs
        the canonical :func:`~repro.memory.membership.churn_plan`
        scaled to the horizon.  An unknown value, or the emulated
        backend forced onto the SAN disk, raises ``ValueError``.
        Without overrides ``self`` is returned, not a copy.
        """
        from repro.engine.spec import check_overrides

        chosen = {"memory": memory, "consistency": consistency, "membership": membership}
        if all(value is None for value in chosen.values()):
            return self
        check_overrides(chosen)
        backend = memory or self.memory
        if backend == "shared":
            return replace(self, memory="shared", emulation={})
        emulation = dict(self.emulation)
        if consistency is not None:
            emulation["consistency"] = consistency
        if membership == "none":
            emulation["membership_plan"] = []
        elif membership == "churn":
            replicas = int(emulation.get("replicas", 3))
            emulation["membership_plan"] = churn_plan(replicas, self.horizon).to_jsonable()
        return replace(self, memory=backend, emulation=emulation)

    def build(
        self, algorithm_cls: Type[OmegaAlgorithm], seed: int = 0, *,
        memory: Optional[str] = None, consistency: Optional[str] = None,
        membership: Optional[str] = None, **run_options: Any,
    ) -> Run:
        """Instantiate a :class:`Run` for ``algorithm_cls`` at ``seed``.

        The override axes go through :meth:`overridden`; every other
        keyword (``log_reads``, ``trace_events``, ...) reaches
        :class:`Run` unchanged and wins over the scenario's field.
        """
        scen = self.overridden(memory, consistency, membership)
        rng = RngRegistry(seed)
        kwargs: Dict[str, Any] = dict(
            seed=seed,
            horizon=scen.horizon,
            sample_interval=scen.sample_interval,
            snapshot_interval=scen.snapshot_interval,
            delay_model=scen.make_delay(rng) if scen.make_delay else None,
            timer_behaviors=scen.make_timers(rng, scen.n) if scen.make_timers else None,
            crash_plan=scen.make_crash_plan(rng) if scen.make_crash_plan else None,
            disk=scen.make_disk(rng) if scen.make_disk else None,
            scramble=scen.scramble,
            algo_config=dict(scen.algo_config),
            log_reads=scen.log_reads,
            trace_events=scen.trace_events,
            memory=scen.memory,
            emulation=dict(scen.emulation) or None,
        )
        kwargs.update(run_options)
        return Run(algorithm_cls, scen.n, **kwargs)

    def run(self, algorithm_cls: Type[OmegaAlgorithm], seed: int = 0, **options: Any) -> RunResult:
        """Build and execute in one step."""
        return self.build(algorithm_cls, seed, **options).execute()


DelayMaker = Callable[[RngRegistry], StepDelayModel]
TimerMaker = Callable[[RngRegistry, int], Dict[int, TimerBehavior]]
CrashMaker = Callable[[RngRegistry], CrashPlan]


# ----------------------------------------------------------------------
# Parts: each delay / timer / crash family and link profile, once
# ----------------------------------------------------------------------
def _one_timely_delay(
    timely_pids: Iterable[int],
    gst: float,
    cap: float,
    lo: float = 0.5,
    hi: float = 1.0,
    scale: float = 0.6,
    shape: float = 1.4,
) -> DelayMaker:
    """AWB1 spelled out: ``timely_pids`` step within ``[lo, hi]`` from
    ``gst`` on, everyone else stays heavy-tailed (capped at ``cap``)."""
    return lambda rng: PartiallySynchronousDelay(
        base=HeavyTailDelay(rng, scale=scale, shape=shape, cap=cap),
        timely_pids=set(timely_pids),
        gst=gst,
        rng=rng,
        timely_lo=lo,
        timely_hi=hi,
    )


def _slow_leader_delay(timely_pid: int) -> DelayMaker:
    """AWB1 with a *large* beta: the timely process is slow but bounded
    (per-step delay in [4.5, 5.0] from the start), everyone else is fast
    on average with heavy-tailed spikes.  Under this profile a follower's
    monitoring cadence is much faster than the timely process's write
    cadence, so only timeouts that grow without bound (AWB2) can learn
    to wait it out -- the exact role condition (f2) plays in Lemma 2."""
    return _one_timely_delay(
        {timely_pid}, gst=0.0, cap=60.0, lo=4.5, hi=5.0, scale=0.5, shape=1.3
    )


def _gst_ramp_delay(gst: float, start_scale: float) -> DelayMaker:
    """Delays shrink linearly from ``start_scale``x until ``gst``."""
    return lambda rng: GstRampDelay(rng, gst=gst, start_scale=start_scale, lo=0.5, hi=1.5)


def _burst_delay(
    period: float, burst_fraction: float, timely_pid: int, gst: float
) -> DelayMaker:
    """Calm/slow cycles forever; ``timely_pid`` stays calm after ``gst``."""
    return lambda rng: AlternatingBurstDelay(
        rng, period=period, burst_fraction=burst_fraction, timely_pids={timely_pid}, gst=gst
    )


def _timers(one: Callable[[RngRegistry], TimerBehavior]) -> TimerMaker:
    """Every process gets its own instance of one timer behaviour."""
    return lambda rng, n: {pid: one(rng) for pid in range(n)}


def _awb_timers(
    f: Any = LinearF(2.0), chaos_until: float = 0.0, jitter: float = 0.25
) -> TimerMaker:
    """AWB2 timers: durations dominate ``f`` once ``chaos_until`` passes."""
    return _timers(
        lambda rng: AsymptoticallyWellBehavedTimer(
            f, rng, chaos_until=chaos_until, jitter=jitter
        )
    )


def _leader_crash(n: int, at: float) -> CrashMaker:
    """The lexmin favourite (pid 0) crashes at ``at``."""
    return lambda rng: CrashPlan.single(n, 0, at)


def _cascade_crash(n: int, count: int, start: float, spacing: float) -> CrashMaker:
    """Pids ``0..count-1`` crash one by one (none when ``count`` is 0)."""
    return lambda rng: CrashPlan.cascade(n, range(count), start=start, spacing=spacing)


def _fabric(
    replicas: int, links: str, link_params: Optional[Dict[str, Any]], **knobs: Any
) -> Dict[str, Any]:
    """The plain-dict :class:`~repro.memory.emulated.EmulationConfig`
    knobs of one replica fabric; ``knobs`` are further config fields."""
    fabric: Dict[str, Any] = {"replicas": replicas, "links": links}
    if link_params:
        fabric["link_params"] = link_params
    return {**fabric, **knobs}


def _sync_links(replicas: int, links: str, delta: float, **knobs: Any) -> Dict[str, Any]:
    """A deterministic-timing fabric; ``delta`` parameterizes the
    ``sync`` model only (the others keep their model defaults)."""
    return _fabric(replicas, links, {"delta": delta} if links == "sync" else None, **knobs)


def _lossy_links(replicas: int, loss: float, retry_interval: float) -> Dict[str, Any]:
    """Fair-lossy links, retransmitting every ``retry_interval``."""
    return _fabric(
        replicas,
        "lossy",
        {"loss": loss, "lo": 0.5, "hi": 4.0, "cap": 8.0},
        retry_interval=retry_interval,
    )


def _ramp_links(replicas: int, gst: float, start_scale: float, **knobs: Any) -> Dict[str, Any]:
    """Links whose delays shrink from ``start_scale``x until ``gst``."""
    return _fabric(
        replicas,
        "gst-ramp",
        {"gst": gst, "start_scale": start_scale, "lo": 0.25, "hi": 1.0},
        **knobs,
    )


# ----------------------------------------------------------------------
# The composer and the twin helper
# ----------------------------------------------------------------------
def _compose(
    name: str,
    n: int,
    horizon: float,
    description: str,
    *,
    delay: Optional[DelayMaker] = None,
    timers: Optional[TimerMaker] = None,
    crash: Optional[CrashMaker] = None,
    margin: float = 0.05,
    emulation: Optional[Dict[str, Any]] = None,
    **fields: Any,
) -> Scenario:
    """The base scenario every factory is a preset over.

    Defaults: uniform delays, AWB ``f = 2x`` timers, no crashes, a
    stability margin of 5 % of the horizon (``margin`` is that
    fraction), and the emulated backend exactly when ``emulation`` knobs
    are given.  ``fields`` are further :class:`Scenario` fields.
    """
    return Scenario(
        name=name,
        n=n,
        horizon=horizon,
        description=description,
        make_delay=delay or (lambda rng: UniformDelay(rng, 0.5, 1.5)),
        make_timers=timers or _awb_timers(),
        make_crash_plan=crash,
        margin=horizon * margin,
        memory="emulated" if emulation else "shared",
        emulation=emulation or {},
        **fields,
    )


def _twin(base: Scenario, name: str, note: str, **knobs: Any) -> Scenario:
    """``base`` renamed, with ``note`` appended to its description and
    ``knobs`` (the consistency level among them) merged into its
    emulation config: the ``-atomic`` / ``-audit`` cells."""
    return replace(
        base,
        name=name,
        description=base.description + note,
        emulation={**base.emulation, **knobs},
    )


# ----------------------------------------------------------------------
# Canonical scenarios
# ----------------------------------------------------------------------
@scenario_factory
def nominal(n: int = 4, horizon: float = 4000.0) -> Scenario:
    """Mild uniform asynchrony, well-behaved timers, no crashes.

    The baseline sanity workload: every algorithm must elect the
    lexmin-favoured process and stay stable.
    """
    return _compose(
        f"nominal-n{n}", n, horizon,
        "uniform delays, AWB timers without chaos, fault-free",
        margin=0.1,
    )


@scenario_factory
def chaotic_timers(n: int = 4, horizon: float = 6000.0, chaos_fraction: float = 0.2) -> Scenario:
    """Figure 1 conditions: timers fire arbitrarily during a long prefix.

    False suspicions pile up during the chaos era; once timers dominate
    ``f`` the timeouts built from accumulated suspicions out-wait the
    leader's write period and the election stabilizes.
    """
    chaos_until = horizon * chaos_fraction
    return _compose(
        f"chaotic-timers-n{n}", n, horizon,
        f"AWB timers misbehave until t={chaos_until:.0f}",
        timers=_awb_timers(chaos_until=chaos_until, jitter=0.5),
    )


@scenario_factory
def leader_crash(n: int = 4, horizon: float = 6000.0, crash_at_fraction: float = 0.35) -> Scenario:
    """The stable leader (lexmin favourite, pid 0) crashes mid-run.

    Followers must notice the silence, suspect, and re-elect a correct
    process -- the core liveness scenario.
    """
    crash_at = horizon * crash_at_fraction
    return _compose(
        f"leader-crash-n{n}", n, horizon,
        f"pid 0 crashes at t={crash_at:.0f}",
        crash=_leader_crash(n, crash_at),
    )


@scenario_factory
def cascade(
    n: int = 6,
    horizon: float = 8000.0,
    crashes: Optional[int] = None,
    start: Optional[float] = None,
    spacing: Optional[float] = None,
) -> Scenario:
    """``crashes`` processes crash one by one (t-independence stress).

    Defaults to half the processes starting at 20% of the horizon; the
    scalability bench sweeps ``crashes`` from 0 up to ``n - 1`` with
    explicit timings.
    """
    victims = list(range(n // 2 if crashes is None else crashes))
    return _compose(
        f"cascade-n{n}" if crashes is None else f"cascade-n{n}-t{len(victims)}", n, horizon,
        f"pids {victims} crash in sequence",
        crash=_cascade_crash(
            n,
            len(victims),
            horizon * 0.2 if start is None else start,
            horizon * 0.08 if spacing is None else spacing,
        ),
    )


@scenario_factory
def all_but_one(n: int = 5, horizon: float = 6000.0, survivor: int = 2) -> Scenario:
    """Extreme fault load: every process but one crashes (t = n-1).

    Both algorithms are independent of ``t``; the survivor must elect
    itself.
    """
    return _compose(
        f"all-but-one-n{n}", n, horizon,
        f"all crash except pid {survivor}",
        crash=lambda rng: CrashPlan.all_but(
            n, survivor, at=horizon * 0.2, spacing=horizon * 0.05
        ),
    )


@scenario_factory
def awb_only(n: int = 4, horizon: float = 8000.0, timely_pid: int = 0) -> Scenario:
    """The paper's *exact* assumption and nothing more.

    Only ``timely_pid`` becomes timely (AWB1) after a stabilization
    time; every other process keeps heavy-tailed, unbounded-looking
    delays forever.  AWB-based algorithms must stabilize; the
    eventually-synchronous baseline has no such guarantee here.
    """
    gst = horizon * 0.15
    return _compose(
        f"awb-only-n{n}", n, horizon,
        f"only pid {timely_pid} timely after t={gst:.0f}; others heavy-tailed",
        delay=_one_timely_delay({timely_pid}, gst, cap=60.0),
        timers=_awb_timers(jitter=0.5),
        margin=0.02,
    )


@scenario_factory
def ev_sync(n: int = 4, horizon: float = 4000.0) -> Scenario:
    """Eventually synchronous system: everyone timely after gst.

    The assumption the baseline [13]-style algorithm needs; strictly
    stronger than AWB.
    """
    gst = horizon * 0.15
    return _compose(
        f"ev-sync-n{n}", n, horizon,
        f"all processes timely after t={gst:.0f}",
        delay=_one_timely_delay(range(n), gst, cap=30.0),
        timers=_timers(lambda rng: AccurateTimer()),
        margin=0.02,
        assumption="ev-sync",
    )


@scenario_factory
def scrambled(n: int = 4, horizon: float = 6000.0) -> Scenario:
    """Arbitrary initial register values (footnote 7 self-stabilization)."""
    return _compose(
        f"scrambled-n{n}", n, horizon,
        "registers start with arbitrary values",
        margin=0.1,
        scramble=scramble_registers,
    )


@scenario_factory
def random_faults(n: int = 5, horizon: float = 8000.0, max_failures: int | None = None) -> Scenario:
    """Fuzz workload: random crash pattern drawn from the run seed.

    Each seed yields a different legal fault pattern (up to ``n - 1``
    crashes at random times in the first half of the run) -- the sweep
    over seeds samples the fault space instead of hand-picking it.
    """
    return _compose(
        f"random-faults-n{n}", n, horizon,
        "seed-derived random crash pattern (up to n-1 crashes)",
        crash=lambda rng: CrashPlan.random(
            n, rng, max_failures=max_failures, horizon=horizon * 0.5, probability=0.5
        ),
    )


@scenario_factory
def san(n: int = 3, horizon: float = 20000.0) -> Scenario:
    """Network-attached-disk deployment (Section 1 motivation).

    Every register access becomes an interval operation with uniform
    latency; the linearizability of the resulting history is checked by
    the SAN tests.  Horizon scales with latency (each algorithm step
    now costs several time units).
    """
    return _compose(
        f"san-n{n}", n, horizon,
        "registers behind a disk with latency 1..4",
        delay=lambda rng: UniformDelay(rng, 0.3, 0.8),
        timers=_awb_timers(LinearF(10.0)),
        margin=0.02,
        sample_interval=20.0,
        make_disk=lambda rng: Disk(LatencyModel(rng, lo=1.0, hi=4.0)),
    )


@scenario_factory
def capped_timers(n: int = 4, horizon: float = 4000.0, cap: float = 3.0, timely_pid: int = 0) -> Scenario:
    """NEGATIVE scenario: follower timers violate AWB2 (bounded cap).

    The timely process honours AWB1 but with a large beta (slow,
    bounded steps); follower timers can never wait longer than ``cap``,
    so they falsely suspect it forever, and the spiky followers keep
    suspecting each other too -- the election churns without end.  The
    positive twin :func:`slow_leader_awb` differs *only* in the timer
    behaviour and stabilizes, demonstrating that AWB2 is load-bearing.
    """
    return _compose(
        f"capped-timers-n{n}", n, horizon,
        f"AWB2 violated: timer durations capped at {cap}, slow timely leader",
        delay=_slow_leader_delay(timely_pid),
        timers=_timers(lambda rng: CappedTimer(rng, cap=cap)),
        margin=0.3,
        assumption="none",
    )


@scenario_factory
def slow_leader_awb(n: int = 4, horizon: float = 12000.0, timely_pid: int = 0) -> Scenario:
    """POSITIVE twin of :func:`capped_timers`: identical asynchrony
    profile, but asymptotically well-behaved timers.  Timeouts grow with
    the accumulated suspicions until they dominate the slow leader's
    write period, after which the election stabilizes (Lemma 2's
    mechanism, observable in the trace)."""
    return _compose(
        f"slow-leader-awb-n{n}", n, horizon,
        "slow timely leader, AWB timers (positive twin of capped-timers)",
        delay=_slow_leader_delay(timely_pid),
        timers=_awb_timers(jitter=0.5),
        margin=0.02,
    )


# ----------------------------------------------------------------------
# Adversarial suite: environments that stress the assumptions while
# still (by construction) satisfying AWB -- the workloads `repro check`
# audits the theorems against.
# ----------------------------------------------------------------------
@scenario_factory
def leader_storm(
    n: int = 5,
    horizon: float = 12000.0,
    crashes: int = 3,
    burst: int = 2,
    start_fraction: float = 0.15,
    gap_fraction: float = 0.15,
) -> Scenario:
    """Targeted-leader crash storms: the adversary kills whoever is
    about to win.

    Both algorithms favour the lexmin candidate (lowest live pid), so
    crashing pids in ascending bursts repeatedly decapitates the
    election just as it settles.  AWB still holds -- the eventual
    survivor set contains a timely process -- so eventual leadership
    must survive every storm.
    """
    start = horizon * start_fraction
    gap = horizon * gap_fraction
    return _compose(
        f"leader-storm-n{n}", n, horizon,
        f"{crashes} crashes in bursts of {burst} target the next lexmin "
        f"favourite, storms {gap:.0f} apart",
        crash=lambda rng: CrashPlan.leader_storms(
            n, crashes, start=start, gap=gap, burst=burst, spacing=2.0
        ),
    )


@scenario_factory
def gst_ramp(
    n: int = 4,
    horizon: float = 8000.0,
    gst_fraction: float = 0.35,
    start_scale: float = 8.0,
) -> Scenario:
    """GST ramp: asynchrony decays *gradually* instead of switching off.

    The slowly improving prefix feeds the timers a moving target of
    false-suspicion intervals; AWB1 holds from the ramp's end, so the
    election must still settle.
    """
    gst = horizon * gst_fraction
    return _compose(
        f"gst-ramp-n{n}", n, horizon,
        f"per-step delays shrink linearly from {start_scale:g}x until "
        f"t={gst:.0f}, timely after",
        delay=_gst_ramp_delay(gst, start_scale),
        timers=_awb_timers(jitter=0.5),
    )


@scenario_factory
def async_bursts(
    n: int = 4,
    horizon: float = 10000.0,
    period: float = 500.0,
    burst_fraction: float = 0.4,
    timely_pid: int = 0,
    gst_fraction: float = 0.2,
) -> Scenario:
    """Alternating asynchrony bursts that never end for the followers.

    Every process cycles between calm and slow phases; after the gst
    only ``timely_pid`` drops out of the cycle (AWB1), while the other
    processes keep bursting for the whole run, so follower speeds never
    settle and timeouts chase a permanently oscillating environment.
    """
    gst = horizon * gst_fraction
    return _compose(
        f"async-bursts-n{n}", n, horizon,
        f"calm/burst cycle of period {period:g}; only pid {timely_pid} "
        f"calm after t={gst:.0f}",
        delay=_burst_delay(period, burst_fraction, timely_pid, gst),
        timers=_awb_timers(jitter=0.5),
        margin=0.02,
    )


@scenario_factory
def near_all_cascade(
    n: int = 6,
    horizon: float = 12000.0,
    survivors: int = 2,
    start_fraction: float = 0.2,
    spacing: float = 4.0,
) -> Scenario:
    """Near-``n-1`` crash cascade: all but ``survivors`` processes die
    in rapid succession (``spacing`` apart, not the leisurely pace of
    :func:`cascade`).  Exercises t-independence at the edge: the
    election must re-settle on the lowest surviving pid with almost the
    whole membership gone.
    """
    if not 1 <= survivors < n:
        raise ValueError(f"need 1 <= survivors < n, got {survivors}")
    victims = list(range(n - survivors))
    start = horizon * start_fraction
    return _compose(
        f"near-all-cascade-n{n}", n, horizon,
        f"pids {victims} crash {spacing:g} apart from t={start:.0f}; "
        f"{survivors} survivor(s)",
        crash=_cascade_crash(n, len(victims), start, spacing),
    )


@scenario_factory
def timely_churn(
    n: int = 4,
    horizon: float = 12000.0,
    epoch_fraction: float = 0.05,
    settle_fraction: float = 0.3,
    final_pid: int = 0,
) -> Scenario:
    """AWB1 source churn: the timely identity rotates before settling.

    The shared-memory analogue of eventual-t-source source-set churn
    (cf. :class:`repro.netsim.network.SourceChurnLinks`): during the
    prefix a different process is timely each epoch while the rest stay
    heavy-tailed; only after the settle point does ``final_pid`` hold
    the role forever.  Algorithms must not commit to an early witness.
    """
    settle = horizon * settle_fraction
    epoch = horizon * epoch_fraction
    return _compose(
        f"timely-churn-n{n}", n, horizon,
        f"timely pid rotates every {epoch:.0f} until t={settle:.0f}, "
        f"then pid {final_pid} forever; others heavy-tailed",
        delay=lambda rng: ChurningTimelyDelay(
            base=HeavyTailDelay(rng, scale=0.6, shape=1.4, cap=40.0),
            candidates=list(range(n)),
            epoch=epoch,
            settle_at=settle,
            final_pid=final_pid,
            rng=rng,
            timely_lo=0.5,
            timely_hi=1.0,
        ),
        timers=_awb_timers(jitter=0.5),
        margin=0.02,
    )


# ----------------------------------------------------------------------
# Emulated-backend family: the same environments with the registers
# realized by the ABD quorum emulation over message passing
# (:mod:`repro.memory.emulated`).  Horizons are scaled up because every
# register access now costs a quorum round trip on top of the step
# delay; margins scale with them.
# ----------------------------------------------------------------------
@scenario_factory
def nominal_emulated(
    n: int = 4,
    horizon: float = 6000.0,
    replicas: int = 3,
    links: str = "sync",
    delta: float = 0.25,
) -> Scenario:
    """:func:`nominal` with ABD-emulated registers.

    The baseline emulated workload and one half of the
    backend-equivalence pair: under the deterministic ``sync`` link
    model the run consumes exactly the same random streams as the
    shared-memory run of the same seed, so Algorithm 1 must elect the
    same leader.
    """
    return _compose(
        f"nominal-emulated-n{n}", n, horizon,
        f"nominal over {replicas}-replica ABD emulation, {links} links",
        margin=0.1,
        emulation=_sync_links(replicas, links, delta),
    )


@scenario_factory
def leader_crash_emulated(
    n: int = 4,
    horizon: float = 9000.0,
    crash_at_fraction: float = 0.35,
    replicas: int = 3,
    links: str = "sync",
    delta: float = 0.25,
) -> Scenario:
    """:func:`leader_crash` with ABD-emulated registers.

    The core liveness scenario on the message-passing substrate: the
    stable leader crashes mid-run and the re-election must complete
    through quorum rounds.
    """
    crash_at = horizon * crash_at_fraction
    return _compose(
        f"leader-crash-emulated-n{n}", n, horizon,
        f"pid 0 crashes at t={crash_at:.0f}; {replicas}-replica ABD "
        f"emulation, {links} links",
        crash=_leader_crash(n, crash_at),
        emulation=_sync_links(replicas, links, delta),
    )


@scenario_factory
def replica_crash(
    n: int = 4,
    horizon: float = 9000.0,
    replicas: int = 5,
    crash_replicas: int = 2,
    crash_at_fraction: float = 0.25,
    crash_spacing: float = 50.0,
    delta: float = 0.25,
) -> Scenario:
    """A minority of *replica nodes* crash-stops mid-run.

    The fault axis no shared-memory scenario can express: the processes
    all stay correct, but the substrate under them degrades.  ABD
    quorums tolerate any minority of replica crashes, so the election
    must neither stall nor churn while acks thin out.
    """
    if crash_replicas > (replicas - 1) // 2:
        raise ValueError(
            f"crashing {crash_replicas} of {replicas} replicas would kill the majority"
        )
    start = horizon * crash_at_fraction
    crash_times = {
        str(i): start + i * crash_spacing for i in range(crash_replicas)
    }
    return _compose(
        f"replica-crash-n{n}", n, horizon,
        f"{crash_replicas} of {replicas} ABD replicas crash from "
        f"t={start:.0f}; all processes correct",
        emulation=_sync_links(replicas, "sync", delta, replica_crash_times=crash_times),
    )


@scenario_factory
def nominal_emulated_atomic(
    n: int = 4,
    horizon: float = 9000.0,
    replicas: int = 3,
    delta: float = 0.25,
) -> Scenario:
    """:func:`nominal_emulated` at the atomic consistency level.

    Every read runs the ABD write-back phase, and the per-operation
    history recorder is on: the run's interval history is audited by
    :func:`repro.memory.linearizability.check_atomic_history` and must
    be linearizable -- turning "the emulation is correct" from an
    assumption into a checked property (``repro check`` includes this
    cell).  The horizon scales up again over :func:`nominal_emulated`
    because the write-back doubles every read's quorum cost
    (Algorithm 2's hand-shake feels it most).
    """
    return _twin(
        nominal_emulated(n, horizon, replicas, "sync", delta),
        f"nominal-emulated-atomic-n{n}",
        ", atomic (write-back) reads, history audited",
        consistency="atomic",
        record_history=True,
    )


@scenario_factory
def replica_crash_atomic(
    n: int = 4,
    horizon: float = 14000.0,
    replicas: int = 5,
    crash_replicas: int = 2,
    crash_at_fraction: float = 0.25,
    crash_spacing: float = 50.0,
    delta: float = 0.25,
) -> Scenario:
    """:func:`replica_crash` at the atomic consistency level.

    The harder audit cell: write-back phases must keep assembling
    majorities while a minority of replicas crash-stops under them, and
    the recorded history must *still* be linearizable -- quorum
    intersection among the survivors is exactly what ABD promises.
    """
    return _twin(
        replica_crash(
            n, horizon, replicas, crash_replicas, crash_at_fraction, crash_spacing, delta
        ),
        f"replica-crash-atomic-n{n}",
        "; atomic (write-back) reads, history audited",
        consistency="atomic",
        record_history=True,
    )


@scenario_factory
def emulated_lossy(
    n: int = 3,
    horizon: float = 9000.0,
    replicas: int = 3,
    loss: float = 0.1,
    retry_interval: float = 10.0,
) -> Scenario:
    """ABD emulation over fair-lossy links (retransmission stress).

    Quorum phases must survive dropped messages via periodic
    retransmission to unacked replicas; delays are arbitrary but
    finite, so AWB still holds and the election must stabilize.
    """
    return _compose(
        f"emulated-lossy-n{n}", n, horizon,
        f"{replicas}-replica ABD emulation over fair-lossy links "
        f"(loss {loss:g}, retry every {retry_interval:g})",
        emulation=_lossy_links(replicas, loss, retry_interval),
    )


@scenario_factory
def emulated_lossy_audit(
    n: int = 3,
    horizon: float = 9000.0,
    replicas: int = 3,
    loss: float = 0.1,
    retry_interval: float = 10.0,
) -> Scenario:
    """:func:`emulated_lossy` with the operation recorder armed.

    The retransmission-stress audit cell: dropped quorum messages force
    duplicate REQ/ACK traffic, and the audit asserts that no replay or
    re-ack ever manufactures a stale read -- every recorded read must
    still satisfy the regular-register condition.
    """
    return _twin(
        emulated_lossy(n, horizon, replicas, loss, retry_interval),
        f"emulated-lossy-audit-n{n}",
        "; operation history recorded and audited (regular)",
        record_history=True,
    )


@scenario_factory
def emulated_gst_ramp(
    n: int = 4,
    horizon: float = 10000.0,
    replicas: int = 3,
    gst_fraction: float = 0.3,
    start_scale: float = 6.0,
) -> Scenario:
    """ABD emulation over links that only *gradually* become timely.

    The PR 2 GST-ramp adversary ported to the substrate: quorum round
    trips shrink linearly until the GST, so early elections are built
    on slow, moving evidence.  AWB holds from the ramp's end and the
    election must settle.
    """
    gst = horizon * gst_fraction
    return _compose(
        f"emulated-gst-ramp-n{n}", n, horizon,
        f"{replicas}-replica ABD emulation; link delays shrink from "
        f"{start_scale:g}x until t={gst:.0f}",
        timers=_awb_timers(jitter=0.5),
        emulation=_ramp_links(replicas, gst, start_scale),
    )


@scenario_factory
def emulated_gst_ramp_audit(
    n: int = 4,
    horizon: float = 10000.0,
    replicas: int = 3,
    gst_fraction: float = 0.3,
    start_scale: float = 6.0,
    retry_interval: float = 4.0,
) -> Scenario:
    """:func:`emulated_gst_ramp` with the operation recorder armed.

    The ramp-stress audit cell: before the GST the stretched quorum
    round trips outlast the (deliberately tight) retransmission timer,
    so phases re-broadcast into links that deliver *everything* --
    duplicate replies and acks flood back, and the audit asserts the
    reply dedup never double-counts a replica into a fake quorum (every
    recorded read still satisfies the regular-register condition).
    """
    return _twin(
        emulated_gst_ramp(n, horizon, replicas, gst_fraction, start_scale),
        f"emulated-gst-ramp-audit-n{n}",
        f"; retry every {retry_interval:g}, history recorded and audited (regular)",
        record_history=True,
        retry_interval=retry_interval,
    )


@scenario_factory
def membership_churn(
    n: int = 3,
    horizon: float = 8000.0,
    replicas: int = 3,
    delta: float = 0.25,
    plan: Optional[List[Dict[str, Any]]] = None,
    transition: str = "dual-quorum",
    crash_times: Optional[Dict[str, float]] = None,
    transfer_delay: float = 150.0,
) -> Scenario:
    """ABD emulation reconfiguring mid-run: dynamic replica membership.

    ``plan`` is the membership timeline in its JSON list-of-dicts form
    (:meth:`~repro.memory.membership.MembershipPlan.to_jsonable`);
    ``None`` runs the canonical
    :func:`~repro.memory.membership.churn_plan` -- join a fresh replica
    at 0.3x horizon, retire replica 0 at 0.55x -- so the default cell
    exercises two back-to-back transitions, each with a dual-quorum
    window and a state-transfer round.  The recorder is always on: a
    churn run without the history audit would miss exactly the
    stale-read bugs a broken reconfiguration manufactures.
    ``transition="single-config"`` switches to the deliberately broken
    old-quorums-only mode (kept for :func:`membership_canary`), and
    ``crash_times`` forwards replica-crash times (stringified index ->
    time) so negative controls can force reads onto under-synced
    joiners.
    """
    events = churn_plan(replicas, horizon).to_jsonable() if plan is None else list(plan)
    membership_plan = [dict(ev) for ev in events]
    knobs = _sync_links(
        replicas,
        "sync",
        delta,
        membership_plan=membership_plan,
        transition=transition,
        transfer_delay=transfer_delay,
        record_history=True,
    )
    if crash_times:
        knobs["replica_crash_times"] = {str(k): float(v) for k, v in crash_times.items()}
    return _compose(
        f"membership-churn-n{n}", n, horizon,
        f"{replicas}-replica ABD emulation reconfiguring through a "
        f"{len(membership_plan)}-event membership plan "
        f"({transition} windows), history audited",
        emulation=knobs,
    )


@scenario_factory
def membership_churn_atomic(
    n: int = 3,
    horizon: float = 10000.0,
    replicas: int = 3,
    delta: float = 0.25,
    plan: Optional[List[Dict[str, Any]]] = None,
    transition: str = "dual-quorum",
    crash_times: Optional[Dict[str, float]] = None,
    transfer_delay: float = 150.0,
) -> Scenario:
    """:func:`membership_churn` at the atomic consistency level.

    The hardest audit cell of the membership family: write-back phases
    must assemble dual majorities across the transition window and the
    recorded history must still be linearizable -- old/new quorum
    intersection is exactly what the two-config window promises.  The
    horizon scales up because the write-back doubles every read's
    quorum cost.
    """
    return _twin(
        membership_churn(
            n, horizon, replicas, delta, plan, transition, crash_times, transfer_delay
        ),
        f"membership-churn-atomic-n{n}",
        "; atomic (write-back) reads",
        consistency="atomic",
    )


#: The pinned membership negative-control construction: replace the
#: entire initial config -- join 3, join 4, leave 0, leave 1 -- then
#: crash replica 2, the last original member, so every read quorum must
#: be served by joiners alone.  Under ``dual-quorum`` windows the state
#: transfer has synced the joiners and the audit stays clean; under the
#: broken ``single-config`` mode the joiners serve whatever they
#: overheard and the history audit catches the stale reads
#: deterministically.
MEMBERSHIP_CANARY_PLAN: Tuple[Dict[str, Any], ...] = (
    {"kind": "join", "at": 600.0, "replica": 3},
    {"kind": "join", "at": 900.0, "replica": 4},
    {"kind": "leave", "at": 1200.0, "replica": 0},
    {"kind": "leave", "at": 1500.0, "replica": 1},
)

#: Crash times accompanying :data:`MEMBERSHIP_CANARY_PLAN`.
MEMBERSHIP_CANARY_CRASHES: Dict[str, float] = {"2": 2500.0}


@scenario_factory
def membership_canary(
    n: int = 3,
    horizon: float = 5000.0,
    transition: str = "single-config",
) -> Scenario:
    """The membership negative control: full config turnover, then the
    last original replica crashes.

    With ``transition="single-config"`` (the default) this is the
    deliberately broken mode the atomic/regular history audits must
    flag red -- the benchmark selfcheck's known-red cell, which is why
    the mode survives in production config; flipping to
    ``"dual-quorum"`` is the matched positive control that must stay
    clean.  Kept as its own factory so the benchmark and CI can replay
    the pinned construction by name.
    """
    return replace(
        membership_churn(
            n,
            horizon,
            replicas=3,
            plan=list(MEMBERSHIP_CANARY_PLAN),
            transition=transition,
            crash_times=dict(MEMBERSHIP_CANARY_CRASHES),
        ),
        name=f"membership-canary-n{n}",
        description=(
            "membership negative control: initial config fully replaced, last "
            f"original replica crashes at t=2500 ({transition} windows), audited"
        ),
    )


#: The default ``chaos`` fault timeline: one disturbance of each kind,
#: serialized with slack between them and a long quiet tail -- harsh
#: enough to force a recovery-resync, a partition detour and a storm
#: into one run, mild enough that a *correct* emulation must pass the
#: theorem monitors and the history audit on every seed.
DEFAULT_CHAOS_PLAN: Tuple[Dict[str, Any], ...] = (
    {"kind": "replica-crash", "at": 1200.0, "replica": 1},
    {"kind": "replica-recover", "at": 2000.0, "replica": 1},
    {"kind": "partition", "at": 2800.0, "replicas": [2]},
    {"kind": "heal", "at": 3600.0, "replicas": [2]},
    {"kind": "message-storm", "at": 4200.0, "until": 4800.0, "factor": 3.0},
)


@scenario_factory
def chaos(
    n: int = 3,
    horizon: float = 8000.0,
    replicas: int = 3,
    delta: float = 0.25,
    plan: Optional[List[Dict[str, Any]]] = None,
    retry_policy: str = "fixed",
) -> Scenario:
    """Fault-injection campaign cell: a :mod:`repro.faults` timeline.

    ``plan`` is the fault plan in its JSON list-of-dicts form (the
    shape :class:`~repro.faults.plan.FaultPlan.to_jsonable` emits and
    the parallel engine can hash); ``None`` runs
    :data:`DEFAULT_CHAOS_PLAN`.  The recorder is always on -- a chaos
    run without the history audit would miss exactly the stale-read
    bugs fault injection exists to surface.  Recovering replicas always
    resync; ``retry_policy`` exposes the backoff knob to campaigns.
    """
    events = DEFAULT_CHAOS_PLAN if plan is None else tuple(plan)
    fault_plan = [dict(ev) for ev in events]
    return _compose(
        f"chaos-n{n}", n, horizon,
        f"{replicas}-replica ABD emulation under a {len(fault_plan)}-event "
        f"fault plan (resync, {retry_policy} retries), history audited",
        emulation=_sync_links(
            replicas,
            "sync",
            delta,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
            record_history=True,
        ),
    )


#: Delay families the fuzzer composes: name -> ``(n, horizon)`` preset
#: over the delay parts, every knob timing a fraction of the horizon.
#: The keys are the genome's delay vocabulary
#: (:data:`repro.fuzz.genome.GENOME_DELAYS`), in mutation-draw order.
FUZZ_DELAYS: Dict[str, Callable[[int, float], Optional[DelayMaker]]] = {
    "uniform": lambda n, horizon: None,  # the composer's default
    "gst-ramp": lambda n, horizon: _gst_ramp_delay(horizon * 0.35, 6.0),
    # The timely process is the HIGHEST pid: both fuzz crash plans kill
    # low pids, and AWB must keep holding after the crashes (a dead
    # timely process would void the assumption the theorem monitors
    # audit under).
    "bursts": lambda n, horizon: _burst_delay(horizon / 20.0, 0.4, n - 1, horizon * 0.2),
}

#: Crash-plan families the fuzzer composes, likewise (the genome's
#: crash vocabulary); ``minority-cascade`` keeps a majority alive.
FUZZ_CRASHES: Dict[str, Callable[[int, float], Optional[CrashMaker]]] = {
    "none": lambda n, horizon: None,
    "leader": lambda n, horizon: _leader_crash(n, horizon * 0.35),
    "minority-cascade": lambda n, horizon: _cascade_crash(
        n, max(1, (n - 1) // 2), horizon * 0.2, horizon * 0.08
    ),
}


@scenario_factory
def fuzz_cell(
    n: int = 3,
    horizon: float = 3000.0,
    delay: str = "uniform",
    crash: str = "none",
    backend: str = "shared",
    replicas: int = 3,
    links: str = "sync",
    delta: float = 0.25,
    consistency: str = "regular",
    plan: Optional[List[Dict[str, Any]]] = None,
    membership: Optional[List[Dict[str, Any]]] = None,
) -> Scenario:
    """The scenario a :class:`~repro.fuzz.genome.ScenarioGenome` pins.

    Flat JSON-serializable kwargs (the genome's
    ``scenario_kwargs()``) composing the delay family, the crash plan,
    the memory backend and -- on the emulated backend -- the replica
    fabric, the consistency level, a :mod:`repro.faults` timeline and a
    :mod:`repro.memory.membership` timeline.  Emulated cells always arm
    the history recorder: a fuzz run without the consistency audit
    would be blind to exactly the stale-read bugs the fuzzer hunts.
    Knob timings (GST, crash instants, burst periods) scale with the
    horizon, so the derived-horizon scaling in the genome keeps every
    cell proportionally shaped.
    """
    # The kwargs arrive from corpus / pinned-repro JSON: reject a bad
    # value here, not later inside a worker.  ``links`` stays open to
    # every link model (the genome's vocabulary is a conservative
    # subset; ``corruption`` / ``timely`` remain reachable by hand).
    for axis, value, choices in (
        ("delay", delay, FUZZ_DELAYS),
        ("crash", crash, FUZZ_CRASHES),
        ("backend", backend, BACKENDS),
        ("links", links, LINK_MODELS),
        ("consistency", consistency, CONSISTENCY_LEVELS),
    ):
        if value not in choices:
            raise ValueError(f"unknown fuzz {axis} {value!r}; choose from {list(choices)}")
    emulation: Dict[str, Any] = {}
    detail = ""
    if backend == "emulated":
        if links == "lossy":
            emulation = _lossy_links(replicas, 0.1, 10.0)
        elif links == "gst-ramp":
            emulation = _ramp_links(replicas, horizon * 0.3, 6.0, retry_interval=4.0)
        else:
            emulation = _sync_links(replicas, links, delta)
        emulation["consistency"] = consistency
        emulation["record_history"] = True
        if plan:
            emulation["fault_plan"] = [dict(ev) for ev in plan]
        if membership:
            emulation["membership_plan"] = [dict(ev) for ev in membership]
        fault_note = f", {len(plan)}-event fault plan" if plan else ""
        churn_note = f", {len(membership)}-event membership plan" if membership else ""
        detail = (
            f" ({replicas} replicas, {links} links, {consistency} reads"
            f"{fault_note}{churn_note}, audited)"
        )
    return _compose(
        f"fuzz-{backend}-{delay}-{crash}-n{n}", n, horizon,
        f"fuzz cell: {delay} delays, crash={crash}, {backend} memory{detail}",
        delay=FUZZ_DELAYS[delay](n, horizon),
        crash=FUZZ_CRASHES[crash](n, horizon),
        margin=0.02,
        emulation=emulation,
    )


#: Backend-equivalence cells: ``(algorithm registry name, shared
#: factory, emulated factory, seed)``.  On the deterministic ``sync``
#: link model an emulated run consumes exactly the same random streams
#: as the shared run of the same seed, but the elected leader still
#: depends on suspicion *dynamics*, which shift with operation latency
#: -- so exact leader equivalence is a per-cell deterministic fact
#: rather than a universal law.  These cells are verified to elect
#: identical leaders on both backends, and the simulator is
#: deterministic, so they match forever.  Pinned here once; the
#: equivalence test (``tests/core/test_emulated_run.py``) and the
#: ``EMU_equivalence`` bench both import this list.
BACKEND_EQUIVALENCE_CELLS: Tuple[Tuple[str, Any, Any, int], ...] = (
    ("alg1", nominal, nominal_emulated, 0),
    ("alg1", nominal, nominal_emulated, 2),
    ("alg1", leader_crash, leader_crash_emulated, 2),
    ("alg1-nwnr", nominal, nominal_emulated, 1),
    ("alg1-nwnr", leader_crash, leader_crash_emulated, 0),
    ("alg1-no-timer", leader_crash, leader_crash_emulated, 1),
    # Algorithm 2 cells: the bounded-counter protocol stresses a
    # different register schedule (epoch counters instead of suspicion
    # vectors), so equivalence there pins the emulation against a second
    # protocol family, not just the Algorithm 1 variants.
    ("alg2", nominal, nominal_emulated, 2),
    ("alg2", nominal, nominal_emulated, 3),
    ("alg2", leader_crash, leader_crash_emulated, 9),
)


_F_KINDS: Dict[str, Callable[[float], Any]] = {
    "linear": LinearF,
    "sqrt": SqrtF,
    "log": LogF,
}


@scenario_factory
def ablation(
    n: int = 4,
    horizon: float = 8000.0,
    f_kind: str = "linear",
    f_scale: float = 2.0,
    profile: str = "mild",
    chaos_until: float = 0.0,
    jitter: float = 0.4,
    timeout_policy: Optional[str] = None,
    const_timeout: Optional[float] = None,
    timely_pid: int = 0,
    assumption: Optional[str] = None,
) -> Scenario:
    """Parameterized workload for the design-choice ablations (bench ABL).

    Knobs: the AWB2 lower-bound function shape (``f_kind`` in
    ``linear``/``sqrt``/``log`` with ``f_scale``), the asynchrony
    ``profile`` (``mild`` = uniform delays; ``harsh`` = the
    slow-but-timely leader of the negative-scenario family), the
    duration of the timers' chaotic era, and the line-27 timeout policy
    (``max``/``sum``/``const``).  Being a registered factory, the whole
    ablation grid runs through the parallel engine.

    ``assumption`` defaults to ``"awb"`` except when ``timeout_policy``
    replaces the paper's line-27 rule (anything other than ``max``),
    which mutates the proven algorithm, so those cells are outside the
    claims envelope (``"none"``).  Benches demonstrating *expected*
    divergence (e.g. sub-linear ``f`` under the harsh profile on a
    finite horizon) pass ``assumption="none"`` explicitly so the
    theorem audit does not count the demonstration as a violation.
    """
    if f_kind not in _F_KINDS:
        raise ValueError(f"unknown f_kind {f_kind!r}; choose from {sorted(_F_KINDS)}")
    if profile not in ("mild", "harsh"):
        raise ValueError(f"unknown profile {profile!r}; choose 'mild' or 'harsh'")
    algo_config: Dict[str, Any] = {}
    if timeout_policy is not None:
        algo_config["timeout_policy"] = timeout_policy
    if const_timeout is not None:
        algo_config["const_timeout"] = const_timeout

    name = f"ablation-{f_kind}{f_scale:g}-{profile}"
    if chaos_until:
        name += f"-chaos{chaos_until:g}"
    if timeout_policy is not None:
        name += f"-{timeout_policy}"
    return _compose(
        name, n, horizon,
        f"{profile} asynchrony, f={f_kind}({f_scale:g}), "
        f"chaos until {chaos_until:g}"
        + (f", timeout policy {timeout_policy}" if timeout_policy else ""),
        delay=_slow_leader_delay(timely_pid) if profile == "harsh" else None,
        timers=_awb_timers(_F_KINDS[f_kind](f_scale), chaos_until, jitter),
        margin=0.02,
        algo_config=algo_config,
        assumption=(
            assumption
            if assumption is not None
            else ("awb" if timeout_policy in (None, "max") else "none")
        ),
    )


__all__ = [
    "BACKEND_EQUIVALENCE_CELLS",
    "DEFAULT_CHAOS_PLAN",
    "MEMBERSHIP_CANARY_CRASHES",
    "MEMBERSHIP_CANARY_PLAN",
    "Scenario",
    "ablation",
    "all_but_one",
    "async_bursts",
    "awb_only",
    "capped_timers",
    "cascade",
    "chaos",
    "chaotic_timers",
    "emulated_gst_ramp",
    "emulated_gst_ramp_audit",
    "emulated_lossy",
    "emulated_lossy_audit",
    "ev_sync",
    "fuzz_cell",
    "FUZZ_CRASHES",
    "FUZZ_DELAYS",
    "gst_ramp",
    "leader_crash",
    "leader_crash_emulated",
    "leader_storm",
    "membership_canary",
    "membership_churn",
    "membership_churn_atomic",
    "near_all_cascade",
    "nominal",
    "nominal_emulated",
    "nominal_emulated_atomic",
    "random_faults",
    "replica_crash",
    "replica_crash_atomic",
    "san",
    "scenario_factory",
    "scramble_registers",
    "scrambled",
    "timely_churn",
]
