"""The parallel experiment engine.

Declarative, cache-aware, multi-process execution of
(algorithm x scenario x seed) grids:

>>> from repro.engine import ExperimentSpec, run_experiment
>>> from repro.workloads.scenarios import nominal
>>> from repro.workloads.registry import ALGORITHMS
>>> spec = ExperimentSpec.from_objects(
...     "demo", {"alg1": ALGORITHMS["alg1"]}, [nominal(n=3, horizon=1500.0)], [0, 1]
... )
>>> report = run_experiment(spec, jobs=2, cache=False)
>>> [row.stabilized for row in report.rows]
[True, True]

Layers: :mod:`~repro.engine.spec` (content-hashed grid descriptions),
:mod:`~repro.engine.summary` (compact picklable row per run),
:mod:`~repro.engine.worker` (one-cell entry point for pool processes),
:mod:`~repro.engine.store` (JSONL cache under ``results/engine/``),
:mod:`~repro.engine.driver` (the pool driver and report),
:mod:`~repro.engine.search` (oracle, violation record, replay and the
judge -> shrink -> pin step shared by ``repro chaos`` and ``repro fuzz``;
imported explicitly, like the searches themselves).
"""

from repro.engine.driver import EngineError, EngineReport, default_jobs, run_experiment
from repro.engine.spec import AlgorithmRef, Cell, ExperimentSpec, ScenarioRef
from repro.engine.store import ENV_RESULTS_DIR, ResultStore, default_results_dir
from repro.engine.summary import RunSummary, summarize_run
from repro.engine.worker import CellOutcome, execute_cell, run_cell

__all__ = [
    "AlgorithmRef",
    "Cell",
    "CellOutcome",
    "ENV_RESULTS_DIR",
    "EngineError",
    "EngineReport",
    "ExperimentSpec",
    "ResultStore",
    "default_results_dir",
    "RunSummary",
    "ScenarioRef",
    "default_jobs",
    "execute_cell",
    "run_cell",
    "run_experiment",
    "summarize_run",
]
