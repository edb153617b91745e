"""Determinism across execution paths (satellite requirement).

The same (algorithm, scenario, seed) cell must summarize to
byte-identical rows no matter how it executed: serially through
``Scenario.run`` with full logging, through the engine worker in the
low-overhead mode, or through a separate worker process.
"""

from __future__ import annotations

from repro.core.algorithm1 import WriteEfficientOmega
from repro.core.variants import StepCounterOmega
from repro.engine import ExperimentSpec, run_experiment
from repro.engine.worker import execute_cell, run_cell
from repro.workloads.scenarios import leader_crash, nominal

ALGOS = {"alg1": WriteEfficientOmega, "step": StepCounterOmega}
SCENARIOS = [nominal(n=3, horizon=1500.0), leader_crash(n=3, horizon=2000.0)]
SEEDS = [0, 1]


def _spec():
    return ExperimentSpec.from_objects("determinism", ALGOS, SCENARIOS, SEEDS)


class TestDeterminism:
    def test_serial_vs_worker_byte_identical(self):
        """One cell, executed twice: serial full-logging run vs the
        engine worker's low-overhead path."""
        scen = SCENARIOS[0]
        serial = scen.run(WriteEfficientOmega, seed=1).summarize(
            scenario_name=scen.name, margin=scen.margin, window=100.0
        )
        serial.algorithm = "alg1"
        cell = _spec().cells()[1]  # (alg1, nominal, seed 1)
        worker_row = run_cell(cell, window=100.0, fast=True)
        assert serial.canonical_json() == worker_row.canonical_json()
        assert serial == worker_row

    def test_execute_cell_matches_run_cell(self):
        cell = _spec().cells()[0]
        outcome = execute_cell(cell)
        assert outcome.ok
        assert outcome.summary.canonical_json() == run_cell(cell).canonical_json()

    def test_in_process_vs_engine_grid(self):
        """The whole grid, in the spec's scenario-major order: in-process
        ``Scenario.run`` + ``summarize`` vs the engine's worker pool."""
        in_process = []
        for scen in SCENARIOS:
            for label, cls in ALGOS.items():
                for seed in SEEDS:
                    row = scen.run(cls, seed=seed).summarize(
                        scenario_name=scen.name,
                        margin=scen.margin,
                        assumption=scen.assumption,
                    )
                    row.algorithm = label
                    in_process.append(row.canonical_json())
        engine = run_experiment(_spec(), jobs=2, cache=False)
        assert in_process == [r.canonical_json() for r in engine.rows]

    def test_repeated_execution_is_stable(self):
        cell = _spec().cells()[3]
        a = run_cell(cell).canonical_json()
        b = run_cell(cell).canonical_json()
        assert a == b

    def test_fast_mode_does_not_change_the_summary(self):
        cell = _spec().cells()[2]
        assert (
            run_cell(cell, fast=True).canonical_json()
            == run_cell(cell, fast=False).canonical_json()
        )
