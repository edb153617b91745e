"""What the benchmark measures: workloads, cell lists and metric names.

Pure data -- nothing here imports ``repro`` -- so the parent process,
the tests and ``BENCHMARK.json`` all read one definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellSpec:
    """One (scenario factory, kwargs, algorithm) cell of a workload."""

    factory: str
    algorithm: str = "alg1"
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    @property
    def label(self) -> str:
        args = ",".join(f"{k}={v}" for k, v in sorted(self.kwargs.items()))
        return f"{self.factory}({args})x{self.algorithm}"


@dataclass(frozen=True)
class Workload:
    """A named closed-loop workload: callers wait for every verdict.

    ``kind`` picks the driver: ``cells`` runs each cell in-process
    (build -> execute -> summarize -> canonical_json), ``sweep`` pushes
    ``cells`` x ``seeds`` through ``run_experiment(jobs=2)`` cold, and
    ``search`` runs ``run_fuzz`` then ``run_campaign``.
    """

    name: str
    kind: str
    why: str
    cells: Tuple[CellSpec, ...] = ()
    #: ``cells`` kind only: low-overhead run mode (no read log, no
    #: per-kind event accounting) vs the scenario's own traced default.
    fast: bool = True


#: The six shared-memory adversarial cells of ``repro check``.
_SHARED_ADVERSARIAL = (
    "leader-storm",
    "gst-ramp",
    "async-bursts",
    "near-all-cascade",
    "timely-churn",
    "awb-only",
)

_SHARED_GRID = tuple(
    CellSpec(factory, algorithm)
    for factory in _SHARED_ADVERSARIAL
    for algorithm in ("alg1", "alg2")
)

_SHARED_CELLS = _SHARED_GRID + (
    CellSpec("nominal", "alg1", {"n": 16, "horizon": 20000.0}),
)

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "shared-fast",
        "cells",
        "sim, core step loop, timers and SharedMemory do all the work; "
        "netsim and memory.emulated do none",
        _SHARED_CELLS,
    ),
    Workload(
        "shared-traced",
        "cells",
        "same cells with the recorder and per-kind accounting on (the repro run "
        "default): a tracing change shows here and must not move shared-fast",
        _SHARED_CELLS,
        fast=False,
    ),
    Workload(
        "abd-regular",
        "cells",
        "netsim plus the static-majority abd fast path dominate",
        (
            CellSpec("nominal-emulated", "alg1"),
            CellSpec("nominal-emulated", "alg2"),
            CellSpec("replica-crash", "alg1"),
            CellSpec("nominal-emulated", "alg1", {"n": 8, "replicas": 5}),
        ),
    ),
    Workload(
        "abd-atomic",
        "cells",
        "same memory layer, other use: write-back reads, the op recorder and the "
        "linearizability audit; a regular-read gain that costs write-back shows here",
        (
            CellSpec("nominal-emulated-atomic", "alg1"),
            CellSpec("replica-crash-atomic", "alg1"),
        ),
    ),
    Workload(
        "abd-faults-churn",
        "cells",
        "the slow paths: fault plans, amnesia resync, dual-quorum windows, state "
        "transfer, retransmission floods, partition-schedule links",
        (
            CellSpec("chaos", "alg1"),
            CellSpec("membership-churn", "alg1"),
            CellSpec("membership-churn-atomic", "alg1"),
            CellSpec("emulated-lossy-audit", "alg1"),
            CellSpec("emulated-gst-ramp-audit", "alg1"),
        ),
    ),
    Workload(
        "sweep-pool",
        "sweep",
        "48 short cells through run_experiment(jobs=2) cold: pool spin-up, pickling, "
        "summarize, JSONL append and scenario build are a visible share",
        _SHARED_GRID,
    ),
    Workload(
        "search-campaign",
        "search",
        "run_fuzz then run_campaign: mutate, coverage, corpus IO, fault generator, "
        "judge and the serial engine; the gate for merging the two loops",
    ),
)

WORKLOAD_BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Profile:
    """How much of each workload one pass runs.

    ``full`` is the benchmark.  ``smoke`` exists for the harness's own
    tests: it keeps every code path and shrinks the work until the
    whole suite fits in seconds.  Its numbers mean nothing.
    """

    name: str
    #: Multiplies every cell horizon (factory default or stated).
    horizon_scale: float
    #: Keep only the first N cells of each list (None = all).
    max_cells: Optional[int]
    sweep_seeds: int
    fuzz_budget: int
    campaign_plans: int
    #: Host seconds one peel-ladder rung measures.
    rung_s: float
    #: Warm cache replays timed for ``engine.cached_cells_per_s``.
    warm_replays: int
    #: Iterations of the host-speed calibration kernel (400k is ~0.15 s).
    cal_loops: int


PROFILES: Dict[str, Profile] = {
    "full": Profile(
        name="full",
        horizon_scale=1.0,
        max_cells=None,
        sweep_seeds=4,
        fuzz_budget=24,
        campaign_plans=4,
        rung_s=0.4,
        warm_replays=50,
        cal_loops=400_000,
    ),
    # 0.25 is the smallest scale at which every kept cell still
    # stabilizes inside its margin at seed 0.
    "smoke": Profile(
        name="smoke",
        horizon_scale=0.25,
        max_cells=3,
        sweep_seeds=1,
        fuzz_budget=4,
        campaign_plans=1,
        rung_s=0.02,
        warm_replays=3,
        cal_loops=20_000,
    ),
}

#: Run seeds are drawn from this pool (``--seed`` indexes it, modulo its
#: length).  Every scenario here is calibrated statistically: now and then
#: a seed's leader settles inside the margin before the horizon and a
#: theorem verdict reads "violated" although nothing is broken.  Such a
#: seed would count every later run as failed, so the pool holds the
#: seeds of range(64) on which every cell of every workload runs clean at
#: the commit that defined the benchmark.  A protocol change that turns
#: one of them red has changed behaviour, and should say so.
_LATE_SETTLERS = frozenset({4, 9, 12, 13, 14, 36, 38, 40, 43, 45, 46, 51, 61})
SEED_POOL: Tuple[int, ...] = tuple(s for s in range(64) if s not in _LATE_SETTLERS)

#: The deliberately broken cell ``--selfcheck`` must see fail.
CANARY = CellSpec("membership-canary", "alg1")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    what: str
    #: End-to-end only: share of the parent's median by which the
    #: metric may worsen before a change is rejected.
    bound: Optional[float] = None
    #: Repeats bit-for-bit for one (code, seed): a simulated statistic
    #: or a count, never a host time.
    exact: bool = False


END_TO_END: Tuple[Metric, ...] = (
    Metric(
        "setup_s",
        "s",
        "lower",
        "child start to first timed call: interpreter, imports, scenario "
        "factories, one untimed warm-up cell (median over the run's children)",
        bound=0.25,
    ),
    Metric(
        "us_per_event",
        "us",
        "lower",
        "host microseconds per simulated event over one pass: each item's best "
        "wall time over the run's repetitions, summed, divided by events fired",
        bound=0.25,
    ),
    Metric(
        "peak_rss_mb",
        "MB",
        "lower",
        "largest ru_maxrss of a measuring child or its pool workers",
        bound=0.15,
    ),
)


def _m(name: str, unit: str, better: str, what: str, exact: bool = False) -> Metric:
    return Metric(name, unit, better, what, exact=exact)


_LADDER = (
    _m("sim.chain_events_per_s", "1/s", "higher", "bare Simulator, 4 staggered self-rescheduling chains"),
    _m("sim.batched_events_per_s", "1/s", "higher", "bare Simulator, 32 aligned chains (equal-timestamp batches)"),
    _m("sim.lane_events_per_s", "1/s", "higher", "bare Simulator, 4 chains through an EventLane"),
    _m("netsim.ring_msgs_per_s", "1/s", "higher", "8-node Network.send ring over SynchronousLinks"),
    _m("netsim.ring_rng_msgs_per_s", "1/s", "higher", "the same ring over TimelyLinks (one RNG draw per message)"),
    _m("memory.shared_ops_per_s", "1/s", "higher", "direct SharedMemory register reads and writes, 80% reads"),
    _m("memory.emu_regular_ops_per_s", "1/s", "higher", "8 closed-loop emu_read/emu_write clients, 3 replicas, regular"),
    _m("memory.emu_atomic_ops_per_s", "1/s", "higher", "the same clients at the atomic level (write-back reads)"),
    _m("memory.emu_regular_r7_ops_per_s", "1/s", "higher", "the regular clients over 7 replicas"),
    _m("memory.emu_regular_msgs_per_op", "count", "lower", "messages per emulated op in the regular driver", True),
    _m("memory.emu_atomic_msgs_per_op", "count", "lower", "messages per emulated op in the atomic driver", True),
    _m("fuzz.mutate_per_s", "1/s", "higher", "ScenarioGenome mutate() calls per second"),
    _m("faults.generate_per_s", "1/s", "higher", "FaultScheduleGenerator.generate calls per second"),
)

_SIMULATED = (
    _m("fail_share", "share", "lower", "failed cells / attempted in the traced passes", True),
    _m("sim_stabilization_time", "simtime", "lower", "median RunSummary.stabilization_time over the pass (the paper's Omega quality)", True),
    _m("sim_msgs_per_op", "count", "lower", "messages_sent / (reads_completed + writes_completed), 0 without abd", True),
    _m("sim_read_latency", "simtime", "lower", "read_op_latency / reads_completed, 0 without abd", True),
)

_COUNTS = (
    _m("sim.events", "count", "lower", "events fired over the pass", True),
    _m("netsim.msgs_sent", "count", "lower", "messages handed to the network", True),
    _m("netsim.msgs_dropped", "count", "lower", "messages the links dropped", True),
    _m("netsim.drop_share", "share", "lower", "msgs_dropped / msgs_sent", True),
    _m("memory.ops", "count", "higher", "emulated reads + writes completed", True),
    _m("memory.retransmissions", "count", "lower", "retransmission rounds fired by pending quorum phases", True),
    _m("memory.retry_share", "share", "lower", "retransmissions / msgs_sent: the wasted-work ratio", True),
    _m("memory.write_backs", "count", "lower", "write-back phases completed by atomic reads", True),
    _m("memory.recoveries", "count", "lower", "replica recoveries applied from fault plans", True),
    _m("memory.resyncs", "count", "lower", "amnesia resync rounds completed", True),
    _m("memory.dual_quorum_ops", "count", "lower", "ops completed inside a two-config window", True),
    _m("memory.transfer_rounds", "count", "lower", "membership state-transfer rounds completed", True),
    _m("memory.configs_installed", "count", "lower", "replica configs installed", True),
    _m("memory.audit_ops", "count", "higher", "operations the consistency audit covered", True),
    _m("fuzz.new_signatures", "count", "higher", "coverage signatures first reached by run_fuzz", True),
    _m("fuzz.corpus_size", "count", "higher", "corpus size after run_fuzz", True),
    _m("faults.shrink_oracle_runs", "count", "lower", "oracle replays spent shrinking violations (0 when clean)", True),
    _m("engine.cache_hit_share", "share", "higher", "cache hits / cells on warm replay; must be 1.0", True),
)

_TIMINGS = (
    _m("pass_s", "s", "lower", "host seconds of the span-recorded pass (the ISSUE's pass_s; varies with the seed on search-campaign)"),
    _m("cells_per_s", "1/s", "higher", "cells (or genomes + plans) per host second of that pass"),
    _m("workloads.factory_s", "s", "lower", "scenario factory spans, summed over the pass"),
    _m("workloads.build_s", "s", "lower", "Scenario.build spans"),
    _m("core.execute_s", "s", "lower", "Run.execute spans"),
    _m("core.events_per_s", "1/s", "higher", "sim.events / core.execute_s"),
    _m("engine.summarize_s", "s", "lower", "summarize spans minus their check_properties and audit children"),
    _m("props.check_s", "s", "lower", "check_properties spans"),
    _m("memory.audit_s", "s", "lower", "RunResult.audit_consistency spans"),
    _m("engine.canonical_json_s", "s", "lower", "RunSummary.canonical_json spans"),
    _m("engine.serial_overhead_share", "share", "lower", "1 - sum(row.wall_time_s) / report.wall_time_s at jobs=1"),
    _m("engine.pool_overhead_share", "share", "lower", "1 - sum(row.wall_time_s) / (2 * report.wall_time_s) at jobs=2"),
    _m("engine.pool_speedup", "ratio", "higher", "jobs=2 / jobs=1 cells per second"),
    _m("engine.sharded_ratio", "ratio", "higher", "shards=2 / unsharded cells per second at jobs=2"),
    _m("engine.store_append_s", "s", "lower", "ResultStore.append of the sweep's outcomes"),
    _m("engine.store_load_s", "s", "lower", "ResultStore.load of the same file"),
    _m("engine.cached_cells_per_s", "1/s", "higher", "cells per second over the median warm replay"),
    _m("fuzz.genomes_per_s", "1/s", "higher", "genomes_run / run_fuzz wall"),
    _m("fuzz.loop_overhead_share", "share", "lower", "1 - sum(cell wall) / run_fuzz wall, via the progress hook"),
    _m("faults.plans_per_s", "1/s", "higher", "plans_run / run_campaign wall"),
    _m("host.cal_s", "s", "lower", "median of the fixed pure-Python calibration kernel bracketing the passes"),
    _m("host.cpu_share", "share", "higher", "process (and pool worker) CPU / wall over the span-recorded pass"),
)

#: ``Run.execute`` self time is split over these packages; whatever is
#: left (stdlib, builtins) is ``trace.other_self_share``.
PROFILED_PACKAGES = (
    "sim",
    "netsim",
    "memory",
    "core",
    "timers",
    "props",
    "analysis",
    "workloads",
)

_TRACE = tuple(
    _m(f"{pkg}.self_share", "share", "lower", f"share of Run.execute profile self time inside repro.{pkg}")
    for pkg in PROFILED_PACKAGES
) + (
    _m("trace.other_self_share", "share", "lower", "share of Run.execute self time outside repro (stdlib, builtins)"),
    _m("trace.calls_per_event", "count", "lower", "profiled function calls per simulated event", True),
    _m("trace.overhead_ratio", "ratio", "lower", "profiled pass / span-recorded pass host time"),
    _m("trace.span_coverage", "share", "higher", "share of the root span covered by recorded child spans"),
)

PER_LAYER: Tuple[Metric, ...] = _LADDER + _SIMULATED + _COUNTS + _TIMINGS + _TRACE
