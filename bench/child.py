"""One benchmark child: set up, run one workload, print one JSON line.

``run.py`` starts every child fresh (``REPRO_KERNEL=python``,
``PYTHONHASHSEED=0``, a private ``REPRO_RESULTS_DIR``), so no repeat
inherits another's warm caches and nothing touches the user's
``results/engine``.  Modes:

* ``setup``   -- stop after set-up and report only ``setup_s``;
* ``measure`` -- untraced closed loop over the workload's items for
  ``--budget`` seconds (at least one full pass); the end-to-end numbers;
* ``trace``   -- the peel ladder, one span-recorded pass, one profiled
  pass and the workload's layer extras; the per-layer numbers;
* ``selfcheck`` -- run the deliberately broken canary cell through the
  same failure rule.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import heapq
import inspect
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from defs import CANARY, PER_LAYER, PROFILES, SEED_POOL, WORKLOAD_BY_NAME, CellSpec, Profile, Workload


def pooled_seed(seed: int) -> int:
    """Map any ``--seed`` onto the vetted pool (see ``defs.SEED_POOL``)."""
    return SEED_POOL[seed % len(SEED_POOL)]


def calibrate(loops: int) -> float:
    """Host-speed witness: a fixed pure-Python heap + dict kernel.

    Informational only -- it shows machine drift beside the numbers and
    is never used to rescale them.
    """
    started = time.perf_counter()
    heap: List[int] = []
    table: Dict[int, int] = {}
    for i in range(loops):
        heapq.heappush(heap, (i * 7919) % 10007)
        table[i & 1023] = i
        if i & 1:
            heapq.heappop(heap)
    return time.perf_counter() - started


def fail_reasons(summary: Any) -> List[str]:
    """Why a finished cell counts as failed (empty = clean)."""
    reasons = []
    if summary.property_violations:
        reasons.append(f"{summary.property_violations} theorem verdict(s) violated")
    if not summary.leader_correct:
        reasons.append("leader_correct is false")
    if summary.audit_ok is False:
        reasons.append(f"consistency audit: {summary.audit_violations} violation(s)")
    if summary.integrity_violations:
        reasons.append(f"{summary.integrity_violations} write-ack integrity violation(s)")
    return reasons


@dataclass
class ItemRun:
    """One execution of one item (a cell, a sweep, a fuzz or a campaign)."""

    wall: float
    attempted: int
    summaries: List[Any] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def events(self) -> int:
        return sum(s.events_fired for s in self.summaries)

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for s in self.summaries:
            h.update(s.canonical_json().encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()

    def judge(self, label: str) -> None:
        for s in self.summaries:
            for reason in fail_reasons(s):
                self.failures.append(f"{label} {s.scenario} x {s.algorithm} seed {s.seed}: {reason}")


# ----------------------------------------------------------------------
# Drivers: one per workload kind.  Construction is part of set-up.
# ----------------------------------------------------------------------
def _cell_kwargs(spec: CellSpec, profile: Profile) -> Dict[str, Any]:
    """The factory kwargs of ``spec`` under ``profile`` (horizon scaled)."""
    from repro.workloads.registry import SCENARIO_FACTORIES

    kwargs = dict(spec.kwargs)
    if profile.horizon_scale != 1.0:
        default = inspect.signature(SCENARIO_FACTORIES[spec.factory]).parameters["horizon"].default
        kwargs["horizon"] = kwargs.get("horizon", default) * profile.horizon_scale
    return kwargs


class Driver:
    """A workload's items; ``labels`` names them in pass order."""

    labels: List[str]

    def run_item(self, index: int) -> ItemRun:
        raise NotImplementedError

    def traced_item(self, index: int, profiled: bool) -> ItemRun:
        """The item as the instrumented passes run it."""
        return self.run_item(index)


class CellsDriver(Driver):
    """Each item is one cell, run in-process the way ``repro run`` does."""

    def __init__(self, cells: Sequence[CellSpec], fast: bool, profile: Profile, seed: int) -> None:
        from repro.workloads import registry

        self.registry = registry
        self.overrides = {"log_reads": False, "trace_events": False} if fast else {}
        self.seed = pooled_seed(seed)
        self.cells = []
        for spec in list(cells)[: profile.max_cells]:
            kwargs = _cell_kwargs(spec, profile)
            registry.SCENARIO_FACTORIES[spec.factory](**kwargs)  # reject bad kwargs before timing
            self.cells.append((spec, kwargs, registry.ALGORITHMS[spec.algorithm]))
        self.labels = [spec.label for spec, *_ in self.cells]

    def run_item(self, index: int) -> ItemRun:
        spec, kwargs, algorithm = self.cells[index]
        seed = self.seed
        started = time.perf_counter()
        try:
            scenario = self.registry.SCENARIO_FACTORIES[spec.factory](**kwargs)
            result = scenario.build(algorithm, seed, **self.overrides).execute()
            summary = result.summarize(
                scenario_name=scenario.name, margin=scenario.margin, assumption=scenario.assumption
            )
            summary.canonical_json()
        except Exception:  # noqa: BLE001 - a raising cell is a failed cell, not a dead benchmark
            wall = time.perf_counter() - started
            return ItemRun(wall, 1, failures=[f"{spec.label} seed {seed} raised:\n{traceback.format_exc()}"])
        run = ItemRun(time.perf_counter() - started, 1, [summary])
        run.judge(spec.label)
        return run


class SweepDriver(Driver):
    """One item: the whole grid through ``run_experiment(jobs=2)``, cold."""

    labels = ["run_experiment"]

    def __init__(self, cells: Sequence[CellSpec], profile: Profile, seed: int, tmp: Path) -> None:
        from repro.engine import driver, spec as spec_mod, store, worker

        self.driver, self.spec_mod, self.store, self.worker = driver, spec_mod, store, worker
        self.profile, self.tmp, self.runs = profile, tmp, 0
        cells = list(cells)[: profile.max_cells]
        self.factories = list(dict.fromkeys(c.factory for c in cells))
        self.algorithms = list(dict.fromkeys(c.algorithm for c in cells))
        self.kwargs = {c.factory: _cell_kwargs(c, profile) for c in cells}
        self.seeds = [pooled_seed(seed + k) for k in range(profile.sweep_seeds)]

    def spec(self, seeds: Sequence[int]) -> Any:
        m = self.spec_mod
        return m.ExperimentSpec(
            name="bench-sweep",
            algorithms=tuple(m.AlgorithmRef(label=a, target=a) for a in self.algorithms),
            scenarios=tuple(m.ScenarioRef.make(f, self.kwargs[f]) for f in self.factories),
            seeds=tuple(seeds),
        )

    def fresh_dir(self) -> Path:
        self.runs += 1
        return self.tmp / f"sweep-{self.runs}"

    def sweep(self, spec: Any, results_dir: Path, jobs: int, shards: int = 1) -> ItemRun:
        started = time.perf_counter()
        report = self.driver.run_experiment(
            spec, jobs=jobs, cache=True, results_dir=results_dir, strict=False, shards=shards
        )
        run = ItemRun(time.perf_counter() - started, spec.size(), list(report.rows))
        run.failures = [f"sweep cell {o.key} raised:\n{o.error}" for o in report.failures]
        run.judge("sweep")
        run.extra = {
            "cell_wall": sum(r.wall_time_s for r in report.rows),
            "cache_hits": report.cache_hits,
        }
        return run

    def run_item(self, index: int) -> ItemRun:
        return self.sweep(self.spec(self.seeds), self.fresh_dir(), jobs=2)

    def traced_item(self, index: int, profiled: bool) -> ItemRun:
        """In-process (jobs=1) so the spans and the profile see the cells.
        The profiled pass keeps the first seed only: the other seeds run
        the same code on other inputs at 2-3x the cost."""
        seeds = self.seeds[:1] if profiled else self.seeds
        return self.sweep(self.spec(seeds), self.fresh_dir(), jobs=1)

    def pool_extras(self) -> Dict[str, Any]:
        """Pool, shard, cache and store runs.  Must happen before the
        span wrappers are installed: a wrapped ``execute_cell`` no longer
        pickles by name into the pool."""
        spec = self.spec(self.seeds)
        warm_dir = self.fresh_dir()
        pool = self.sweep(spec, warm_dir, jobs=2)
        sharded = self.sweep(spec, self.fresh_dir(), jobs=2, shards=2)
        replays = [self.sweep(spec, warm_dir, jobs=2) for _ in range(self.profile.warm_replays)]
        failures = pool.failures + sharded.failures
        cold = [s.canonical_json() for s in pool.summaries]
        if any([s.canonical_json() for s in replay.summaries] != cold for replay in replays):
            failures.append("warm replay rows differ from the cold run's")
        hit_share = min(r.extra["cache_hits"] for r in replays) / spec.size()
        if hit_share != 1.0:
            failures.append(f"warm replay served only {hit_share:.0%} of the cells from the cache")

        store = self.store.ResultStore(self.fresh_dir())
        outcomes = [
            self.worker.CellOutcome(key=cell.key, summary=row)
            for cell, row in zip(spec.cells(), pool.summaries)
        ]
        t0 = time.perf_counter()
        store.append(spec, outcomes)
        t1 = time.perf_counter()
        loaded = store.load(spec)
        t2 = time.perf_counter()
        if len(loaded) != len(outcomes):
            failures.append(f"store round trip kept {len(loaded)} of {len(outcomes)} rows")
        return {
            "failures": failures,
            "attempted": pool.attempted + sharded.attempted,
            "pool_wall": pool.wall,
            "digest": pool.digest,
            "metrics": {
                "engine.pool_overhead_share": 1.0 - pool.extra["cell_wall"] / (2 * pool.wall),
                "engine.sharded_ratio": pool.wall / sharded.wall,
                "engine.cached_cells_per_s": spec.size() / statistics.median(r.wall for r in replays),
                "engine.cache_hit_share": hit_share,
                "engine.store_append_s": t1 - t0,
                "engine.store_load_s": t2 - t1,
            },
        }


class SearchDriver(Driver):
    """Two items: ``run_fuzz`` (serial engine), then ``run_campaign``."""

    labels = ["run_fuzz", "run_campaign"]

    def __init__(self, profile: Profile, seed: int, tmp: Path) -> None:
        from repro.faults import campaign
        from repro.fuzz import loop
        from repro.fuzz.genome import DEFAULT_BASE_HORIZON

        self.loop, self.campaign = loop, campaign
        self.profile, self.tmp, self.runs = profile, tmp, 0
        self.seed = pooled_seed(seed)
        self.fuzz_horizon = DEFAULT_BASE_HORIZON * profile.horizon_scale
        self.plan_horizon = campaign.CampaignConfig().horizon * profile.horizon_scale

    def run_item(self, index: int) -> ItemRun:
        summaries: List[Any] = []
        started = time.perf_counter()
        if index == 0:
            self.runs += 1
            config = self.loop.FuzzConfig(
                seed=self.seed, budget=self.profile.fuzz_budget, jobs=1, horizon=self.fuzz_horizon
            )
            result = self.loop.run_fuzz(
                config,
                corpus_dir=self.tmp / f"corpus-{self.runs}",
                progress=lambda genome, summary, novel, count: summaries.append(summary),
            )
            run = ItemRun(time.perf_counter() - started, result.genomes_run, summaries)
            run.failures = [f"fuzz engine failure: {f}" for f in result.failures]
            run.extra = {
                "cell_wall": sum(s.wall_time_s for s in summaries),
                "new_signatures": result.new_signatures,
                "corpus_size": result.corpus_size,
            }
        else:
            config = self.campaign.CampaignConfig(
                seed=self.seed, plans=self.profile.campaign_plans, horizon=self.plan_horizon
            )
            result = self.campaign.run_campaign(
                config, progress=lambda plan_index, summary, count: summaries.append(summary)
            )
            run = ItemRun(time.perf_counter() - started, result.plans_run, summaries)
        run.extra["oracle_runs"] = sum(v.oracle_runs for v in result.violations)
        run.judge(self.labels[index])
        return run


def make_driver(workload: Workload, profile: Profile, seed: int, tmp: Path) -> Driver:
    if workload.kind == "cells":
        return CellsDriver(workload.cells, workload.fast, profile, seed)
    if workload.kind == "sweep":
        return SweepDriver(workload.cells, profile, seed, tmp)
    return SearchDriver(profile, seed, tmp)


def warm_up() -> None:
    """One small untimed cell through every stage a pass uses."""
    from repro.workloads.registry import ALGORITHMS, SCENARIO_FACTORIES

    scenario = SCENARIO_FACTORIES["nominal-emulated"](n=3, horizon=1000.0)
    result = scenario.build(ALGORITHMS["alg1"], 0, log_reads=False, trace_events=False).execute()
    result.summarize(scenario_name=scenario.name, margin=scenario.margin).canonical_json()


def peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def measure(driver: Driver, budget: float, cal_loops: int) -> Dict[str, Any]:
    """Closed loop over the items until ``budget`` host seconds are
    spent, and never less than one full pass."""
    n = len(driver.labels)
    samples: List[List[float]] = [[] for _ in range(n)]
    events = [0] * n
    digests: List[List[str]] = [[] for _ in range(n)]
    failures: List[str] = []
    attempted = 0
    cal = [calibrate(cal_loops)]
    cpu0, started = cpu_seconds(), time.perf_counter()
    done = False
    while not done:
        for i in range(n):
            # After the first pass, start an item only if at least half
            # of it still fits in the budget.
            if samples[i] and time.perf_counter() - started + 0.5 * samples[i][-1] > budget:
                done = True
                break
            run = driver.run_item(i)
            samples[i].append(run.wall)
            events[i] = run.events
            digests[i].append(run.digest)
            failures.extend(run.failures)
            attempted += run.attempted
    wall, cpu = time.perf_counter() - started, cpu_seconds() - cpu0
    cal.append(calibrate(cal_loops))
    return {
        "labels": driver.labels,
        "samples": samples,
        "events": events,
        "digests": digests,
        "failures": failures,
        "attempted": attempted,
        "cal_s": cal,
        "cpu_share": cpu / wall,
        "peak_rss_mb": peak_rss_mb(),
    }


def _traced_pass(driver: Driver, recorder: Any, name: str, profiled: bool) -> Dict[str, Any]:
    first_span, first_count = len(recorder.spans), len(recorder.run_counts)
    cpu0 = cpu_seconds()
    root = recorder.begin(name)
    runs = []
    for i, label in enumerate(driver.labels):
        recorder.cell = label
        runs.append(driver.traced_item(i, profiled))
    recorder.cell = None
    recorder.end(root)
    return {
        "root": root,
        "runs": runs,
        "spans": slice(first_span, len(recorder.spans)),
        "counts": recorder.run_counts[first_count:],
        "cpu": cpu_seconds() - cpu0,
    }


def trace(driver: Driver, workload: Workload, profile: Profile, seed: int, out_dir: Path) -> Dict[str, Any]:
    import ladder
    import spans

    metrics = {m.name: 0.0 for m in PER_LAYER}
    metrics.update(ladder.run(profile.rung_s, seed))
    cal = [calibrate(profile.cal_loops)]

    pool = driver.pool_extras() if workload.kind == "sweep" else None

    recorder = spans.Recorder()
    spans.install(recorder)
    plain = _traced_pass(driver, recorder, "pass", profiled=False)
    recorder.profile = cProfile.Profile()
    profiled = _traced_pass(driver, recorder, "profiled-pass", profiled=True)
    cal.append(calibrate(profile.cal_loops))

    runs: List[ItemRun] = plain["runs"]
    summaries = [s for run in runs for s in run.summaries]
    counts = plain["counts"]
    root = plain["root"]
    span_range = plain["spans"]
    attempted = sum(r.attempted for r in runs + profiled["runs"])
    failures = [f for r in runs + profiled["runs"] for f in r.failures]
    if pool is not None:
        attempted += pool["attempted"]
        failures += pool["failures"]
        if pool["digest"] != runs[0].digest:
            failures.append("jobs=2 rows differ from the jobs=1 rows of the same grid")
    elif [r.digest for r in profiled["runs"]] != [r.digest for r in runs]:
        failures.append("the profiled pass and the span-recorded pass differ in canonical_json")

    def total(key: str) -> float:
        return sum(c[key] for c in counts)

    def column(name: str) -> float:
        return sum(getattr(s, name) for s in summaries)

    events, sent, ops = total("events"), total("msgs_sent"), total("reads") + total("writes")
    execute_s = recorder.total("execute", span_range)
    times = sorted(s.stabilization_time for s in summaries if s.stabilization_time is not None)
    cells = sum(r.attempted for r in runs)
    metrics.update(
        {
            "fail_share": len(failures) / attempted,
            "sim_stabilization_time": statistics.median(times) if times else 0.0,
            "sim_msgs_per_op": sent / ops if ops else 0.0,
            "sim_read_latency": total("read_latency") / total("reads") if total("reads") else 0.0,
            "sim.events": events,
            "netsim.msgs_sent": sent,
            "netsim.msgs_dropped": total("msgs_dropped"),
            "netsim.drop_share": total("msgs_dropped") / sent if sent else 0.0,
            "memory.ops": ops,
            "memory.retransmissions": column("retransmissions"),
            "memory.retry_share": column("retransmissions") / sent if sent else 0.0,
            "memory.write_backs": column("write_backs"),
            "memory.recoveries": column("recoveries"),
            "memory.resyncs": column("resyncs"),
            "memory.dual_quorum_ops": column("dual_quorum_ops"),
            "memory.transfer_rounds": column("transfer_rounds"),
            "memory.configs_installed": column("configs_installed"),
            "memory.audit_ops": column("audit_ops"),
            "faults.shrink_oracle_runs": sum(r.extra.get("oracle_runs", 0) for r in runs),
            "pass_s": root.duration,
            "cells_per_s": cells / root.duration,
            "workloads.factory_s": recorder.total("factory", span_range),
            "workloads.build_s": recorder.total("build", span_range),
            "core.execute_s": execute_s,
            "core.events_per_s": events / execute_s if execute_s else 0.0,
            "engine.summarize_s": recorder.self_total("summarize", span_range),
            "props.check_s": recorder.total("check_properties", span_range),
            "memory.audit_s": recorder.total("audit", span_range),
            "engine.canonical_json_s": recorder.total("canonical_json", span_range),
            "host.cal_s": statistics.median(cal),
            "host.cpu_share": plain["cpu"] / root.duration,
            "trace.span_coverage": 1.0 - root.self_time / root.duration,
        }
    )
    if pool is not None:
        (serial,) = runs  # the span-recorded pass ran the grid at jobs=1
        metrics.update(pool["metrics"])
        metrics["engine.serial_overhead_share"] = 1.0 - serial.extra["cell_wall"] / serial.wall
        metrics["engine.pool_speedup"] = serial.wall / pool["pool_wall"]
    if workload.kind == "search":
        fuzz, plans = runs
        metrics.update(
            {
                "fuzz.genomes_per_s": fuzz.attempted / fuzz.wall,
                "fuzz.loop_overhead_share": 1.0 - fuzz.extra["cell_wall"] / fuzz.wall,
                "fuzz.new_signatures": fuzz.extra["new_signatures"],
                "fuzz.corpus_size": fuzz.extra["corpus_size"],
                "faults.plans_per_s": plans.attempted / plans.wall,
            }
        )
    profiled_events = sum(c["events"] for c in profiled["counts"])
    metrics.update(spans.package_shares(recorder.profile, profiled_events))
    # Per event, because the profiled sweep pass keeps one seed of the grid.
    if events and profiled_events:
        metrics["trace.overhead_ratio"] = (profiled["root"].duration / profiled_events) / (
            root.duration / events
        )

    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"trace-{workload.name}.json"
    trace_path.write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": seed,
                "profile": profile.name,
                "spans": [s.to_jsonable() for s in recorder.spans],
            }
        )
    )
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failures": failures,
        "digest": hashlib.sha256("".join(r.digest for r in runs).encode()).hexdigest(),
        "trace_path": str(trace_path),
    }


def selfcheck(seed: int) -> Dict[str, Any]:
    """The broken canary through the same gate: it must come out failed."""
    run = CellsDriver([CANARY], True, PROFILES["full"], seed).run_item(0)
    return {"attempted": run.attempted, "failures": run.failures}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_BY_NAME))
    parser.add_argument("--mode", required=True, choices=["setup", "measure", "trace", "selfcheck"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--profile", default="full", choices=sorted(PROFILES))
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--tmp", type=Path, required=True, help="private scratch directory")
    parser.add_argument("--out", type=Path, required=True, help="where trace files go")
    args = parser.parse_args(argv)

    workload, profile = WORKLOAD_BY_NAME[args.workload], PROFILES[args.profile]
    if args.mode == "selfcheck":
        out = selfcheck(args.seed)
    else:
        driver = make_driver(workload, profile, args.seed, args.tmp)
        warm_up()
        setup_s = time.monotonic() - float(os.environ["BENCH_T0"])
        if args.mode == "setup":
            out = {}
        elif args.mode == "measure":
            out = measure(driver, args.budget, profile.cal_loops)
        else:
            out = trace(driver, workload, profile, args.seed, args.out)
        out["setup_s"] = setup_s
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
