"""Sweep driver: run an (algorithm x scenario x seed) matrix.

Produces flat :class:`SweepRow` records that the comparison bench, the
scalability bench and EXPERIMENTS.md all consume.  Keeping the driver
here (rather than inside each bench) guarantees every table in the repo
is produced by the same code path.

:func:`run_matrix` is a thin wrapper over the parallel experiment
engine (:mod:`repro.engine`): factory-built scenarios execute through
:func:`repro.engine.driver.run_experiment` (optionally across worker
processes and against the JSONL cache), while hand-built
:class:`~repro.workloads.scenarios.Scenario` instances -- which cannot
cross process boundaries -- take the in-process path.  Both paths
produce identical :class:`~repro.engine.summary.RunSummary` rows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Type

from repro.core.interfaces import OmegaAlgorithm
from repro.core.runner import RunResult
from repro.workloads.scenarios import Scenario


@dataclass
class SweepRow:
    """One (algorithm, scenario, seed) outcome."""

    algorithm: str
    scenario: str
    seed: int
    n: int
    horizon: float
    stabilized: bool
    stabilization_time: Optional[float]
    leader: Optional[int]
    valid: bool
    termination_ok: bool
    forever_writer_count: int
    forever_writers: frozenset
    growing_register_count: int
    single_writer: bool
    total_writes: int
    total_reads: int

    @staticmethod
    def headers() -> List[str]:
        """Column names of the printed sweep table."""
        return [
            "algorithm",
            "scenario",
            "seed",
            "stab",
            "t_stab",
            "leader",
            "forever_writers",
            "growing_regs",
            "single_writer",
            "writes",
            "reads",
        ]

    def cells(self) -> List[object]:
        """This row's printable cell values, in header order."""
        return [
            self.algorithm,
            self.scenario,
            self.seed,
            self.stabilized,
            self.stabilization_time if self.stabilization_time is not None else "-",
            self.leader if self.leader is not None else "-",
            self.forever_writers,
            self.growing_register_count,
            self.single_writer,
            self.total_writes,
            self.total_reads,
        ]


def summarize_result(result: RunResult, scenario: Scenario, window: float = 100.0) -> SweepRow:
    """Condense one run into a sweep row.

    Thin wrapper over the engine summarizer so every table in the repo
    -- CLI ``run``/``compare``, sweeps, benches -- is produced by one
    code path; the returned row is a
    :class:`~repro.engine.summary.RunSummary` (a :class:`SweepRow`
    subclass).
    """
    from repro.engine.summary import summarize_run

    return summarize_run(
        result,
        scenario_name=scenario.name,
        margin=scenario.margin,
        window=window,
        assumption=scenario.assumption,
    )


def _ref_is_faithful(scenario: Scenario) -> bool:
    """Does the scenario's factory ref still describe this instance?

    A caller may mutate a factory-built scenario after construction
    (``s = nominal(); s.n = 3``); the stale ref would then rebuild the
    *pre-mutation* scenario inside engine workers.  Rebuild from the
    ref and compare every :class:`Scenario` field (the ``make_*``
    closures cannot be compared, so only their presence is checked); on
    any divergence the caller falls back to the in-process path, which
    honors the live object.
    """
    ref = getattr(scenario, "ref", None)
    if ref is None:
        return False
    from repro.workloads.registry import build_scenario

    try:
        rebuilt = build_scenario(ref[0], ref[1])
    except Exception:
        return False
    for field in fields(Scenario):
        if not field.compare:  # the ref itself
            continue
        mine, theirs = getattr(scenario, field.name), getattr(rebuilt, field.name)
        if callable(mine) or callable(theirs):
            if (mine is None) != (theirs is None):
                return False
        elif mine != theirs:
            return False
    return True


def run_matrix(
    algorithms: Dict[str, Type[OmegaAlgorithm]],
    scenarios: Sequence[Scenario],
    seeds: Iterable[int],
    window: float = 100.0,
    *,
    jobs: Optional[int] = 1,
    cache: bool = False,
    results_dir: "Any" = None,
) -> List["Any"]:
    """Execute the full matrix and return one row per run.

    Rows are :class:`~repro.engine.summary.RunSummary` instances (a
    :class:`SweepRow` subclass) in deterministic scenario-major order.
    ``jobs > 1`` fans the grid out over worker processes (``0``/``None``
    means one worker per CPU); ``cache=True`` serves
    previously-computed cells from the JSONL store under
    ``results/engine/``.  Scenarios without a factory ``ref``
    (hand-built instances) always run in-process.
    """
    from repro.engine.driver import run_experiment
    from repro.engine.spec import ExperimentSpec
    from repro.engine.summary import summarize_run

    seeds = list(seeds)
    # Partition: faithful factory scenarios go through the engine in one
    # grid (parallel + cacheable); hand-built or mutated scenarios run
    # in-process.  Rows are identical either way (the summarizer never
    # looks at the read log or the event-kind counts), so a mixed matrix
    # keeps parallelism for the cells that support it.
    engine_ids = {id(s) for s in scenarios if _ref_is_faithful(s)}
    engine_scenarios = [s for s in scenarios if id(s) in engine_ids]
    engine_rows: List[Any] = []
    if engine_scenarios and algorithms and seeds:
        spec = ExperimentSpec.from_objects(
            "run-matrix", algorithms, engine_scenarios, seeds, window=window
        )
        engine_rows = run_experiment(
            spec, jobs=jobs or None, cache=cache, results_dir=results_dir, strict=True
        ).rows

    rows: List[Any] = []
    block = len(algorithms) * len(seeds)  # engine rows per scenario
    cursor = 0
    for scenario in scenarios:
        if id(scenario) in engine_ids:
            rows.extend(engine_rows[cursor : cursor + block])
            cursor += block
            continue
        for name, cls in algorithms.items():
            for seed in seeds:
                result = scenario.run(cls, seed=seed)
                row = summarize_run(
                    result,
                    scenario_name=scenario.name,
                    margin=scenario.margin,
                    window=window,
                    assumption=scenario.assumption,
                )
                row.algorithm = name  # prefer the caller's label
                rows.append(row)
    return rows


def stabilization_rate(rows: Sequence[SweepRow]) -> Tuple[int, int]:
    """``(stabilized, total)`` over a set of rows."""
    stab = sum(1 for r in rows if r.stabilized)
    return stab, len(rows)


__all__ = ["SweepRow", "run_matrix", "stabilization_rate", "summarize_result"]
