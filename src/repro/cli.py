"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    Execute one (algorithm, scenario, seed) run and print the election
    report, the writer/boundedness censuses, and the leadership
    timeline.
``sweep``
    Execute an (algorithm x scenario x seed) grid through the parallel
    experiment engine: ``--jobs N`` worker processes, deterministic row
    order, per-cell error capture, and a JSONL result cache under
    ``results/engine/`` keyed by the grid's content hash.  ``--memory
    emulated`` forces the ABD register emulation onto every cell.
``check``
    Audit the paper's Theorems 1-4 over the adversarial scenario suite
    through the parallel engine and print the property-violation table;
    exits non-zero on any violated claim.
``chaos``
    Run N seeded fault-injection campaigns (replica crash/recover with
    state-resync, partitions, message storms) through the ABD emulation
    under the theorem monitors and the consistency history audit; on a
    violation, delta-debug the fault plan down to a minimal pinned
    repro scenario.  Exits non-zero on any violating plan.
``fuzz``
    Coverage-guided scenario fuzzing: mutate typed scenario genomes
    one axis at a time over the full workload space (delay models,
    crash plans, link models, fault plans, backends, consistency
    levels), keep an AFL-style corpus of genomes reaching novel
    trace-feature signatures, and judge every run with the theorem
    monitors plus the consistency/integrity audits; violating genomes
    are shrunk to mutation-minimal pinned repro scenarios.  Exits
    non-zero on any violation.  ``--replay`` re-runs a corpus's pinned
    regressions instead.
``compare``
    Run several algorithms on one scenario and print the comparison
    table (the Section 5 trade-off, on demand).
``perf``
    Run the repo benchmark named in ``BENCHMARK.json`` (``python3
    bench/run.py``; arguments after ``--`` go to it unchanged), save
    the result object it prints (``--out``) and gate it against an
    earlier one with the contract's own bounds (``--compare``); exits
    non-zero on regression.
``lint``
    Run the AST-based invariant linter over the source tree
    (determinism, kernel purity, registry completeness, batch-dispatch
    safety, strict-typing ratchet); exits non-zero on any finding.
``list``
    Show the available algorithms and scenarios.

Examples
--------
::

    python -m repro list
    python -m repro run --algorithm alg1 --scenario leader-crash --seed 3
    python -m repro sweep --algorithms alg1 alg2 --scenarios nominal leader-crash \
        --seeds 0 1 2 --jobs 4
    python -m repro sweep --scenarios nominal --memory emulated --seeds 0 1
    python -m repro check --jobs 4
    python -m repro chaos --plans 25 --seed 7
    python -m repro chaos --plans 10 --retry-policy backoff
    python -m repro fuzz --budget 50 --seed 0 --corpus results/fuzz
    python -m repro fuzz --replay --corpus results/fuzz
    python -m repro lint
    python -m repro compare --scenario nominal --seeds 0 1 2
    python -m repro perf --out base.json -- --profile smoke
    python -m repro perf --compare base.json -- --profile smoke
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analysis.report import format_property_table, format_table
from repro.analysis.timeline import build_timeline, render_timeline
from repro.analysis.write_stats import forever_writers, growing_registers
from repro.engine.spec import OVERRIDE_AXES
from repro.lint.runner import RULE_FAMILIES
from repro.memory.emulated import LINK_MODELS, RETRY_POLICIES
from repro.workloads.registry import ALGORITHMS, SCENARIO_FACTORIES
from repro.workloads.scenarios import Scenario
from repro.workloads.sweep import SweepRow, summarize_result

#: Default adversarial suite of ``repro check``: six environments that
#: stress crash storms, GST ramps, asynchrony bursts, near-(n-1)
#: cascades and timely-identity churn while still satisfying AWB by
#: construction -- so every claimed theorem must hold.
CHECK_SCENARIOS = [
    "leader-storm",
    "gst-ramp",
    "async-bursts",
    "near-all-cascade",
    "timely-churn",
    "awb-only",
    # The emulated-backend cells: the same theorems must hold when the
    # registers are realized by the ABD quorum emulation, including
    # under a minority of replica crashes.
    "nominal-emulated",
    "replica-crash",
    # The atomic consistency level: write-back reads whose recorded
    # histories are additionally audited for linearizability (the audit
    # verdict counts toward this command's violation total).
    "nominal-emulated-atomic",
    "replica-crash-atomic",
    # The lossy-link audit cell: retransmission races (duplicate REQ/ACK
    # deliveries) with the recorded history checked against the
    # regular-register condition.
    "emulated-lossy-audit",
    # The ramp-stress audit cell: a deliberately tight retransmission
    # timer floods duplicate replies through slow (but lossless) links;
    # the audit asserts reply dedup never fakes a quorum.
    "emulated-gst-ramp-audit",
    # The fault-injection cell: the default chaos timeline (transient
    # replica crash with recover-and-resync, partition/heal, a message
    # storm) with the history audit on -- the theorems must survive it.
    "chaos",
    # The dynamic-membership cells: the replica set reconfigures
    # mid-run through dual-quorum transition windows, and the recorded
    # history must stay regular/linearizable across every config change.
    "membership-churn",
    "membership-churn-atomic",
]

#: Scenario factories deliberately NOT in the ``repro check`` default
#: suite, with the reason on each line.  The ``registry-check-coverage``
#: lint rule requires every ``SCENARIO_FACTORIES`` key to appear in
#: exactly one of these two lists, so adding a factory without deciding
#: whether it is audited fails ``repro lint``.
CHECK_EXEMPT_SCENARIOS = [
    "nominal",  # baseline environment; strictly dominated by the suite
    "chaotic-timers",  # early-chaos variant of awb-only
    "leader-crash",  # subsumed by leader-storm's repeated crashes
    "cascade",  # subsumed by near-all-cascade at the fault edge
    "all-but-one",  # n-1 crashes: T2/T4 trivial, nothing extra audited
    "ev-sync",  # eventually-synchronous delays: weaker than gst-ramp
    "scrambled",  # scheduler scrambling is on in every suite cell
    "random-faults",  # unpinned random faults; suite uses pinned storms
    "san",  # disk-latency (SAN) study cell, not a theorem stressor
    "capped-timers",  # deliberately violates AWB (negative scenario)
    "slow-leader-awb",  # Section-5 trade-off study cell
    "ablation",  # algorithm-ablation study cell
    "leader-crash-emulated",  # subsumed by replica-crash + leader-storm
    "emulated-lossy",  # non-audited twin of emulated-lossy-audit
    "emulated-gst-ramp",  # emulated twin of the shared gst-ramp cell
    "fuzz-cell",  # genome-pinned fuzz cell; `repro fuzz` audits the space
    "membership-canary",  # deliberately broken negative control (CI runs it red)
]


def _print_results_dir(report: Any) -> None:
    """Engine-backed commands report the resolved cache location."""
    if report.store_path is not None:
        print(f"results dir: {report.store_path.parent.resolve()}")


def _print_failures(report: Any) -> None:
    for failure in report.failures:
        print(f"\nFAILED {failure.key}:\n{failure.error}", file=sys.stderr)


def _build_scenarios(
    command: str, args: argparse.Namespace, names: Sequence[str]
) -> Optional[List[Scenario]]:
    """The named scenarios at ``--n`` / ``--horizon`` -- or ``None``
    after a one-line error (the caller exits 2) when a factory or the
    :class:`Scenario` itself refuses the configuration (``--n 1``, a
    non-finite horizon, ``near-all-cascade --n 2``)."""
    sizes = {"n": args.n, "horizon": args.horizon}
    kwargs = {knob: value for knob, value in sizes.items() if value is not None}
    try:
        return [SCENARIO_FACTORIES[name](**kwargs) for name in names]
    except ValueError as exc:
        print(f"repro {command}: error: {exc}", file=sys.stderr)
        return None


#: Flags that only configure the emulated backend, with the role each
#: plays in the refusal text.
EMULATED_ONLY_FLAGS = (
    ("consistency", "is an emulated-backend axis"),
    ("membership", "is an emulated-backend axis"),
    ("links", "selects the emulated backend's link model"),
)


def _overridden(
    command: str, args: argparse.Namespace, scenarios: Sequence[Scenario]
) -> Optional[List[Scenario]]:
    """``scenarios`` under the override flags -- the engine's own
    transform, :meth:`Scenario.overridden` -- or ``None`` after a
    one-line error (the caller exits 2) when the transform refuses a
    cell or an emulated-only flag meets a cell that runs shared: both
    are knowable before any cell is simulated."""
    try:
        cells = [
            scen.overridden(**{axis: getattr(args, axis) for axis in OVERRIDE_AXES})
            for scen in scenarios
        ]
    except ValueError as exc:
        print(f"repro {command}: error: {exc}", file=sys.stderr)
        return None
    shared = [cell.name for cell in cells if cell.memory != "emulated"]
    for flag, role in EMULATED_ONLY_FLAGS:
        if shared and getattr(args, flag, None) is not None:
            hint = (
                f" but these cells run the shared backend: {shared}; "
                "pass --memory emulated or pick emulated scenarios"
                if command == "sweep"
                else "; pass --memory emulated or pick an emulated scenario"
            )
            print(f"repro {command}: error: --{flag} {role}{hint}", file=sys.stderr)
            return None
    return cells


def _engine_spec(
    command: str,
    args: argparse.Namespace,
    algorithms: Dict[str, type],
    scenarios: Sequence[Scenario],
    **options: Any,
) -> Optional[Any]:
    """The grid of an engine-backed command -- or ``None`` after a
    one-line error (the caller exits 2) for a spec the engine rejects or
    a scenario whose horizon cannot hold the census windows: both are
    knowable before any cell is simulated."""
    from repro.engine.spec import ExperimentSpec
    from repro.props.checkers import tail_windows

    try:
        spec = ExperimentSpec.from_objects(
            args.name, algorithms, scenarios, args.seeds, window=args.window, **options
        )
        for scen in scenarios:
            try:
                tail_windows(scen.horizon, args.window)  # the judge's own rule
            except ValueError as exc:
                raise ValueError(
                    f"scenario {scen.name!r} (horizon {scen.horizon:g}): {exc} "
                    f"of width {args.window:g}; lower --window or raise the horizon"
                ) from None
    except ValueError as exc:
        print(f"repro {command}: error: {exc}", file=sys.stderr)
        return None
    return spec


def cmd_list(_args: argparse.Namespace) -> int:
    """Print the registered algorithms and scenarios."""
    print("algorithms:")
    for name, cls in ALGORITHMS.items():
        print(f"  {name:14s} {cls.display_name} -- {cls.__doc__.strip().splitlines()[0]}")
    print("\nscenarios:")
    for name, factory in SCENARIO_FACTORIES.items():
        scen = factory()
        print(f"  {name:16s} n={scen.n:<3d} horizon={scen.horizon:<8.0f} {scen.description}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Execute one (algorithm, scenario, seed) run and print the report."""
    scenarios = _build_scenarios("run", args, [args.scenario])
    cells = None if scenarios is None else _overridden("run", args, scenarios)
    if cells is None:
        return 2
    (scen,) = cells
    algorithm = ALGORITHMS[args.algorithm]
    if args.links is not None:
        # Link parameters are model-specific (delta/loss/ramp knobs) and
        # do not transfer across models; the override falls back to the
        # target model's defaults.
        emulation = {k: v for k, v in scen.emulation.items() if k != "link_params"}
        scen = replace(scen, emulation={**emulation, "links": args.links})
    level = (
        f", {scen.emulation.get('consistency', 'regular')} reads"
        if scen.memory == "emulated"
        else ""
    )
    print(
        f"running {algorithm.display_name} on {scen.name} "
        f"(seed {args.seed}, {scen.memory} memory{level})..."
    )
    result = scen.run(algorithm, seed=args.seed)

    report = result.stabilization(margin=scen.margin)
    print(f"\nstabilized: {report.stabilized}")
    if report.leader is not None:
        print(f"leader: p{report.leader} (correct: {report.leader_correct})")
    if report.time is not None:
        print(f"stabilization time: {report.time:.0f}")

    writers = forever_writers(result.memory, result.horizon, window=result.horizon / 20)
    growing = growing_registers(result.memory, result.horizon)
    print(f"forever writers: {sorted(writers)}")
    print(f"still-growing registers: {sorted(growing) if growing else 'none (bounded)'}")
    print(
        f"traffic: {result.memory.total_writes} writes / {result.memory.total_reads} reads; "
        f"{result.sim.events_fired} events"
    )
    if getattr(result.memory, "configs_installed", 0) > 0:
        print(
            f"reconfiguration: {result.memory.configs_installed} config(s) installed, "
            f"{result.memory.transfer_rounds} transfer round(s), "
            f"{result.memory.dual_quorum_ops} dual-quorum op(s)"
        )
    audit = result.audit_consistency()
    if audit is not None:
        print(f"consistency audit: {audit.summary()}")
    if args.timeline:
        print("\nleadership timeline:")
        print(render_timeline(build_timeline(result.trace, result.crash_plan)))
    ok = report.stabilized or scen.assumption == "none"
    if audit is not None and not audit.ok:
        ok = False
    return 0 if ok else 1


def cmd_compare(args: argparse.Namespace) -> int:
    """Run several algorithms on one scenario and print the table."""
    if not args.seeds:
        print("repro compare: error: --seeds needs at least one seed", file=sys.stderr)
        return 2
    scenarios = _build_scenarios("compare", args, [args.scenario])
    if scenarios is None:
        return 2
    (scen,) = scenarios
    results = {
        name: [
            summarize_result(scen.run(ALGORITHMS[name], seed=seed), scen)
            for seed in args.seeds
        ]
        for name in args.algorithms or list(ALGORITHMS)
    }
    rows = []
    for name, per_seed in results.items():
        stab = [r for r in per_seed if r.stabilized]
        times = [r.stabilization_time for r in stab]
        rows.append(
            [
                name,
                f"{len(stab)}/{len(per_seed)}",
                sum(times) / len(times) if times else float("inf"),
                max(r.forever_writer_count for r in per_seed),
                max(r.growing_register_count for r in per_seed) == 0,
                sum(r.total_writes for r in per_seed) // len(per_seed),
            ]
        )
    print(f"scenario: {scen.name} ({scen.description}); seeds {args.seeds}")
    print(
        format_table(
            ["algorithm", "stabilized", "mean t_stab", "forever writers", "bounded", "writes/run"],
            rows,
        )
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run an (algorithm x scenario x seed) grid through the engine."""
    from repro.engine.driver import check_sharding, parse_shard, run_experiment, shard_bounds

    algorithms = {name: ALGORITHMS[name] for name in (args.algorithms or list(ALGORITHMS))}
    scenarios = _build_scenarios("sweep", args, args.scenarios)
    if scenarios is None or _overridden("sweep", args, scenarios) is None:
        return 2
    spec = _engine_spec(
        "sweep",
        args,
        algorithms,
        scenarios,
        fast=not args.traced,
        **{axis: getattr(args, axis) for axis in OVERRIDE_AXES},
    )
    if spec is None:
        return 2
    try:
        shard = None if args.shard is None else parse_shard(args.shard)
        check_sharding(shard, args.shards)
    except ValueError as exc:
        print(f"repro sweep: error: {exc}", file=sys.stderr)
        return 2
    report = run_experiment(
        spec,
        jobs=args.jobs,  # None/0 -> one worker per CPU (driver default)
        cache=not args.no_cache,
        results_dir=args.results_dir,
        strict=False,
        shard=shard,
        shards=args.shards,
    )
    print(format_table(SweepRow.headers(), [row.cells() for row in report.rows]))
    cache_note = (
        f"cache: {report.cache_hits} hit(s), file {report.store_path}"
        if not args.no_cache
        else "cache: disabled"
    )
    if shard is not None:
        lo, hi = shard_bounds(report.total_cells, *shard)
        print(
            f"\nshard {shard[0]}/{shard[1]}: cells {lo + 1}..{hi} "
            f"of {report.total_cells}"
        )
    elif args.shards != 1:
        print(f"\nin-process shards: {args.shards}")
    print(
        f"\n{len(report.rows) + len(report.failures)} cell(s): "
        f"{report.executed} executed on {report.jobs} job(s), "
        f"{report.cache_hits} from cache; wall {report.wall_time_s:.2f}s"
    )
    print(f"spec hash: {spec.content_hash()}; {cache_note}")
    _print_results_dir(report)
    _print_failures(report)
    return 1 if report.failures else 0


def cmd_check(args: argparse.Namespace) -> int:
    """Audit Theorems 1-4 (plus consistency audits) over the suite."""
    from repro.engine.driver import run_experiment
    from repro.engine.search import violation_count

    algorithms = {name: ALGORITHMS[name] for name in args.algorithms}
    scenarios = [SCENARIO_FACTORIES[name]() for name in args.scenarios]
    spec = _engine_spec("check", args, algorithms, scenarios)
    if spec is None:
        return 2
    report = run_experiment(
        spec,
        jobs=args.jobs,
        cache=not args.no_cache,
        results_dir=args.results_dir,
        strict=False,
    )
    print(
        f"theorem audit: {len(args.algorithms)} algorithm(s) x "
        f"{len(scenarios)} adversarial scenario(s) x {len(args.seeds)} seed(s)"
    )
    print(format_property_table(report.rows))
    # Consistency-audit and write-ack integrity failures count alongside
    # the theorem ones: an atomic-level cell whose history is not
    # linearizable is as broken a claim as a violated theorem.
    violations = sum(violation_count(row) for row in report.rows)
    audited = sum(1 for row in report.rows if getattr(row, "audit_ok", None) is not None)
    print(
        f"\n{spec.size()} cell(s): {report.executed} executed on {report.jobs} job(s), "
        f"{report.cache_hits} from cache; wall {report.wall_time_s:.2f}s; "
        f"{violations} violation(s); {audited} consistency-audited cell(s)"
    )
    _print_results_dir(report)
    for row in report.rows:
        props = getattr(row, "properties", None)
        for verdict in props.violations() if props else ():
            print(
                f"VIOLATED T{verdict.theorem} ({verdict.name}) by {row.algorithm} "
                f"on {row.scenario} seed {row.seed}: {verdict.detail}",
                file=sys.stderr,
            )
        if getattr(row, "audit_ok", None) is False:
            print(
                f"CONSISTENCY AUDIT FAILED ({row.consistency} level, "
                f"{row.audit_violations} violation(s)) for {row.algorithm} "
                f"on {row.scenario} seed {row.seed}",
                file=sys.stderr,
            )
        if row.integrity_violations:
            print(
                f"WRITE-ACK INTEGRITY FAILED ({row.integrity_violations} "
                f"violation(s)) for {row.algorithm} on {row.scenario} seed {row.seed}",
                file=sys.stderr,
            )
    _print_failures(report)
    return 1 if (violations or report.failures) else 0


def _print_violations(violations: Sequence[Any], describe: Callable[[Any], str]) -> None:
    """Report search violations (``repro chaos`` / ``repro fuzz``) on
    stderr; ``describe`` words who violated and how far it shrank."""
    import json

    for violation in violations:
        print(
            f"\nVIOLATING {describe(violation)} in {violation.oracle_runs} oracle run(s)",
            file=sys.stderr,
        )
        print(
            "pinned repro: " + json.dumps(violation.repro, sort_keys=True),
            file=sys.stderr,
        )


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run seeded fault campaigns; shrink any violating plan."""
    import json

    from repro.faults.campaign import CampaignConfig, run_campaign

    try:
        config = CampaignConfig(
            algorithm=args.algorithm,
            seed=args.seed,
            plans=args.plans,
            n=args.n,
            horizon=args.horizon,
            replicas=args.replicas,
            max_faults=args.max_faults,
            retry_policy=args.retry_policy,
            shrink=not args.no_shrink,
        )
    except ValueError as exc:
        print(f"repro chaos: error: {exc}", file=sys.stderr)
        return 2
    if not args.json:
        print(
            f"chaos campaign: {config.plans} fault plan(s) for "
            f"{config.algorithm} (seed {config.seed}, n={config.n}, "
            f"horizon {config.horizon:g}, {config.replicas} replicas, "
            f"resync, {config.retry_policy} retries)"
        )

    def progress(index: int, summary: Any, count: int) -> None:
        verdict = "ok" if count == 0 else f"{count} VIOLATION(S)"
        print(
            f"  plan {index:3d}: {verdict}; recoveries={summary.recoveries} "
            f"resyncs={summary.resyncs} retransmissions={summary.retransmissions}"
        )

    result = run_campaign(config, progress=progress if args.verbose else None)
    if args.json:
        print(json.dumps(result.to_jsonable(), indent=2, sort_keys=True))
        return 1 if result.violations else 0
    total = sum(v.violations for v in result.violations)
    print(
        f"\n{result.plans_run} plan(s) run: {len(result.violations)} violating "
        f"plan(s), {total} violation(s); recoveries={result.recoveries}, "
        f"resyncs={result.resyncs}, retransmissions={result.retransmissions}, "
        f"integrity_violations={result.integrity_violations}"
    )
    _print_violations(
        result.violations,
        lambda v: (
            f"PLAN {v.where['index']} (seed {v.where['seed']}, {v.violations} "
            f"violation(s)): shrunk {len(v.subject)} -> {len(v.minimal)} event(s)"
        ),
    )
    return 1 if result.violations else 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Run the coverage-guided fuzzer (or replay pinned regressions)."""
    import json
    from pathlib import Path

    from repro.fuzz.corpus import Corpus
    from repro.fuzz.loop import FuzzConfig, replay_regressions, run_fuzz

    corpus_dir = Path(args.corpus) if args.corpus else None
    try:
        if args.replay and corpus_dir is None:
            raise ValueError("--replay needs --corpus")
        if args.replay and not corpus_dir.is_dir():
            raise ValueError(f"--replay: no corpus directory at {corpus_dir}")
        Corpus.load(corpus_dir)  # an unreadable corpus file fails here, not mid-run
        config = FuzzConfig(
            seed=args.seed,
            budget=args.budget,
            batch=args.batch,
            jobs=args.jobs,
            horizon=args.horizon,
            shrink=not args.no_shrink,
        )
    except ValueError as exc:
        print(f"repro fuzz: error: {exc}", file=sys.stderr)
        return 2
    if args.replay:
        rows = replay_regressions(corpus_dir)
        red = 0
        for key, _payload, count in rows:
            verdict = "ok (fixed)" if count == 0 else f"{count} VIOLATION(S)"
            red += 1 if count else 0
            print(f"  regression {key}: {verdict}")
        print(f"{len(rows)} pinned regression(s) replayed: {red} still red")
        return 1 if red else 0

    if not args.json:
        print(
            f"fuzz: budget {config.budget} genome(s), seed {config.seed}, "
            f"base horizon {config.horizon:g}, batch {config.batch}"
        )

    def progress(genome: Any, summary: Any, novel: bool, count: int) -> None:
        verdict = "ok" if count == 0 else f"{count} VIOLATION(S)"
        marker = "NEW" if novel else "   "
        print(f"  {genome.key()} {marker} {verdict}; {summary.scenario}")

    result = run_fuzz(
        config, corpus_dir=corpus_dir, progress=progress if args.verbose else None
    )
    if args.json:
        print(json.dumps(result.to_jsonable(), indent=2, sort_keys=True))
        return 0 if result.ok else 1
    print(
        f"\n{result.genomes_run} genome(s) run: {len(result.violations)} "
        f"violating genome(s), {result.total_signatures} trace-feature "
        f"signature(s) ({result.new_signatures} new), corpus size "
        f"{result.corpus_size}"
    )
    for failure in result.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    _print_violations(
        result.violations,
        lambda v: (
            f"GENOME {v.subject.key()} ({v.violations} violation(s)): "
            f"shrunk to complexity {v.minimal.complexity()}"
        ),
    )
    return 0 if result.ok else 1


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the AST invariant linter; exit non-zero on any finding."""
    from pathlib import Path

    from repro.lint import run_lint

    try:
        report = run_lint(
            root=Path(args.root) if args.root else None,
            tests_dir=Path(args.tests) if args.tests else None,
            families=args.rules or None,
        )
    except ValueError as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return report.exit_code


def cmd_perf(args: argparse.Namespace) -> int:
    """Run the repo benchmark; save and/or gate the result it prints."""
    import json
    from pathlib import Path

    from repro import perf

    # Load the contract and the baseline *before* measuring: a bad path
    # must fail fast, and comparing against the --out path must see the
    # earlier values, not this run's.
    try:
        root, contract = perf.load_contract()
        baseline = perf.load_result(args.compare) if args.compare else None
    except (OSError, ValueError) as exc:
        print(f"repro perf: error: {exc}", file=sys.stderr)
        return 2

    code, last_line = perf.run_benchmark([*contract["command"], *args.bench_args], root)
    if baseline is None and not args.out:
        return code
    try:
        result = perf.parse_result(last_line, "the benchmark's last output line")
    except ValueError as exc:
        print(f"repro perf: error: {exc} (benchmark exit status {code})", file=sys.stderr)
        return code or 2

    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {Path(args.out).resolve()}")
    if baseline is not None:
        regressions = perf.compare_results(result, baseline, contract["end_to_end"])
        print(
            f"\ncompared {len(baseline)} workload(s) against {args.compare} with the "
            f"bounds in {perf.CONTRACT_FILENAME}: {len(regressions)} regression(s)"
        )
        for regression in regressions:
            print(f"PERF REGRESSION {regression}", file=sys.stderr)
        if regressions:
            return 1
    return code


def _add_engine_options(parser: argparse.ArgumentParser, default_name: str) -> None:
    """The options every engine-backed subcommand shares."""
    parser.add_argument("--window", type=float, default=100.0, help="census tail window")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes; 1 = serial, omitted or 0 = one per CPU",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="skip the JSONL result cache"
    )
    parser.add_argument(
        "--results-dir",
        default=None,
        help="cache root (default REPRO_RESULTS_DIR or the repo's results/engine)",
    )
    parser.add_argument(
        "--name", default=default_name, help="experiment name (cache prefix)"
    )


def _add_override_flags(parser: argparse.ArgumentParser, **help_for: str) -> None:
    """One ``--<axis>`` flag per :data:`OVERRIDE_AXES` row, with the
    row's help unless ``help_for`` words it for this command."""
    for axis, (_noun, vocabulary, help_text) in OVERRIDE_AXES.items():
        parser.add_argument(
            f"--{axis}",
            choices=list(vocabulary),
            default=None,
            help=help_for.get(axis, help_text),
        )


def build_parser() -> argparse.ArgumentParser:
    """Assemble the full ``repro`` argument parser (all subcommands)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Eventual leader election in asynchronous shared memory (DSN 2007 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list algorithms and scenarios").set_defaults(func=cmd_list)

    run_p = sub.add_parser("run", help="execute one run and print the report")
    run_p.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="alg1")
    run_p.add_argument("--scenario", choices=sorted(SCENARIO_FACTORIES), default="nominal")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--n", type=int, default=None, help="override process count")
    run_p.add_argument("--horizon", type=float, default=None, help="override horizon")
    _add_override_flags(run_p)
    run_p.add_argument(
        "--links",
        choices=sorted(LINK_MODELS),
        default=None,
        help=(
            "link-model override for the emulated backend's replica fabric "
            "(model-specific parameters reset to that model's defaults); "
            "only valid when the run is on the emulated backend"
        ),
    )
    run_p.add_argument("--timeline", action="store_true", help="render the leadership timeline")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser(
        "sweep", help="run an (algorithm x scenario x seed) grid through the engine"
    )
    sweep_p.add_argument("--algorithms", nargs="*", choices=sorted(ALGORITHMS), default=None)
    sweep_p.add_argument(
        "--scenarios", nargs="*", choices=sorted(SCENARIO_FACTORIES), default=["nominal"]
    )
    sweep_p.add_argument("--seeds", nargs="*", type=int, default=[0, 1])
    sweep_p.add_argument("--n", type=int, default=None, help="override process count")
    sweep_p.add_argument("--horizon", type=float, default=None, help="override horizon")
    _add_override_flags(
        sweep_p,
        memory=(
            "force a memory backend onto every cell ('emulated' puts the whole "
            "grid on the ABD quorum emulation, 'shared' strips it from "
            "emulated-native scenarios); default: each scenario's own choice"
        ),
    )
    sweep_p.add_argument(
        "--shard",
        default=None,
        metavar="K/N",
        help=(
            "run only the K-th of N contiguous balanced shards of the grid "
            "(1-based); shards share the result cache, so N invocations -- "
            "concurrent or not -- assemble the full sweep, and a killed "
            "shard resumes without recomputing finished cells"
        ),
    )
    sweep_p.add_argument(
        "--shards",
        type=int,
        default=1,
        help=(
            "run the whole grid as N in-process shards (one process pool "
            "per shard, sequentially); mutually exclusive with --shard"
        ),
    )
    sweep_p.add_argument(
        "--traced",
        action="store_true",
        help=(
            "run cells with full read logging and per-kind event accounting "
            "instead of the default low-overhead fast path (summaries are "
            "identical either way; this exists for debugging and the "
            "determinism tests)"
        ),
    )
    _add_engine_options(sweep_p, default_name="sweep")
    sweep_p.set_defaults(func=cmd_sweep)

    check_p = sub.add_parser(
        "check",
        help="audit Theorems 1-4 over the adversarial scenario suite",
    )
    # nargs="+": an audit whose whole contract is a pass/fail verdict
    # must reject an accidentally emptied axis instead of green-lighting
    # a zero-cell grid.
    check_p.add_argument(
        "--algorithms", nargs="+", choices=sorted(ALGORITHMS), default=["alg1", "alg2"]
    )
    check_p.add_argument(
        "--scenarios",
        nargs="+",
        choices=sorted(SCENARIO_FACTORIES),
        default=CHECK_SCENARIOS,
        help="scenario factories to audit (defaults to the adversarial suite)",
    )
    check_p.add_argument("--seeds", nargs="+", type=int, default=[0])
    _add_engine_options(check_p, default_name="check")
    check_p.set_defaults(func=cmd_check)

    chaos_p = sub.add_parser(
        "chaos",
        help=(
            "run seeded fault-injection campaigns under the theorem and "
            "consistency oracles; shrink any violating plan to a pinned repro"
        ),
    )
    chaos_p.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="alg1")
    chaos_p.add_argument(
        "--plans", type=int, default=20, help="number of generated fault plans to run"
    )
    chaos_p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="campaign seed (plan generation and per-plan run seeds derive from it)",
    )
    chaos_p.add_argument("--n", type=int, default=3, help="process count per run")
    chaos_p.add_argument(
        "--horizon", type=float, default=8000.0, help="simulation horizon per run"
    )
    chaos_p.add_argument(
        "--replicas", type=int, default=3, help="ABD replica count per run"
    )
    chaos_p.add_argument(
        "--max-faults",
        type=int,
        default=3,
        help="maximum disturbance windows per generated plan",
    )
    chaos_p.add_argument(
        "--retry-policy",
        choices=list(RETRY_POLICIES),
        default="fixed",
        help="retransmission policy of pending quorum phases",
    )
    chaos_p.add_argument(
        "--no-shrink",
        action="store_true",
        help="report violating plans as-is instead of delta-debugging them",
    )
    chaos_p.add_argument(
        "--verbose", action="store_true", help="print a line per plan"
    )
    chaos_p.add_argument(
        "--json", action="store_true", help="emit the full campaign report as JSON"
    )
    chaos_p.set_defaults(func=cmd_chaos)

    fuzz_p = sub.add_parser(
        "fuzz",
        help=(
            "coverage-guided scenario fuzzing under the theorem and "
            "consistency oracles; shrink violating genomes to pinned repros"
        ),
    )
    fuzz_p.add_argument(
        "--budget", type=int, default=50, help="total genomes to run"
    )
    fuzz_p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="fuzz seed (the mutation stream and every cell's run seed)",
    )
    fuzz_p.add_argument(
        "--batch", type=int, default=16, help="genomes per parallel engine batch"
    )
    fuzz_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes per batch; 1 = serial, omitted or 0 = one per CPU",
    )
    fuzz_p.add_argument(
        "--horizon",
        type=float,
        default=3000.0,
        help=(
            "base horizon genomes derive their run horizons from (substrate "
            "axes scale it up)"
        ),
    )
    fuzz_p.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help=(
            "corpus directory to load and extend (genomes reaching novel "
            "coverage, the coverage map, pinned regressions); omitted = "
            "in-memory only"
        ),
    )
    fuzz_p.add_argument(
        "--replay",
        action="store_true",
        help=(
            "re-run the pinned regressions in --corpus instead of fuzzing; "
            "exits non-zero while any replays red"
        ),
    )
    fuzz_p.add_argument(
        "--no-shrink",
        action="store_true",
        help="pin violating genomes as-is instead of delta-debugging them",
    )
    fuzz_p.add_argument(
        "--verbose", action="store_true", help="print a line per genome"
    )
    fuzz_p.add_argument(
        "--json", action="store_true", help="emit the full fuzz report as JSON"
    )
    fuzz_p.set_defaults(func=cmd_fuzz)

    lint_p = sub.add_parser(
        "lint",
        help="run the AST invariant linter (determinism, purity, registries, dispatch, typing)",
    )
    lint_p.add_argument(
        "--root",
        default=None,
        help="package root to lint (default: the installed repro package)",
    )
    lint_p.add_argument(
        "--tests",
        default=None,
        help=(
            "tests directory for the registry test-coverage rule "
            "(default: the sibling tests/ tree when present)"
        ),
    )
    lint_p.add_argument(
        "--rules",
        nargs="*",
        choices=sorted(RULE_FAMILIES),
        default=None,
        help="restrict the run to these rule families (default: all)",
    )
    lint_p.set_defaults(func=cmd_lint)

    cmp_p = sub.add_parser("compare", help="compare algorithms on one scenario")
    cmp_p.add_argument("--scenario", choices=sorted(SCENARIO_FACTORIES), default="nominal")
    cmp_p.add_argument("--algorithms", nargs="*", choices=sorted(ALGORITHMS), default=None)
    cmp_p.add_argument("--seeds", nargs="*", type=int, default=[0, 1])
    cmp_p.add_argument("--n", type=int, default=None)
    cmp_p.add_argument("--horizon", type=float, default=None)
    cmp_p.set_defaults(func=cmd_compare)

    perf_p = sub.add_parser(
        "perf", help="run the repo benchmark (bench/run.py); save or gate the result it prints"
    )
    perf_p.add_argument("--out", default=None, metavar="PATH", help="save the result object here")
    perf_p.add_argument(
        "--compare",
        default=None,
        metavar="BASE.json",
        help="gate against an earlier --out file with BENCHMARK.json's bounds; exit 1 if worse",
    )
    perf_p.add_argument(
        "bench_args",
        nargs="*",
        metavar="-- BENCH_ARG",
        help="passed to bench/run.py unchanged, e.g. -- --profile smoke --workloads shared-fast",
    )
    perf_p.set_defaults(func=cmd_perf)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse ``argv`` and dispatch to the selected subcommand."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
