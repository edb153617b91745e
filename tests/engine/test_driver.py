"""The parallel driver: ordering, caching, error capture."""

from __future__ import annotations

import pytest

from repro.core.algorithm1 import WriteEfficientOmega
from repro.core.variants import StepCounterOmega
from repro.engine import (
    AlgorithmRef,
    EngineError,
    ExperimentSpec,
    ResultStore,
    ScenarioRef,
    run_experiment,
)
from repro.workloads.scenarios import nominal


@pytest.fixture()
def spec():
    return ExperimentSpec.from_objects(
        "driver-test",
        {"alg1": WriteEfficientOmega, "step": StepCounterOmega},
        [nominal(n=3, horizon=1500.0)],
        [0, 1],
    )


class TestDriver:
    def test_rows_in_grid_order(self, spec, tmp_path):
        report = run_experiment(spec, jobs=1, results_dir=tmp_path)
        assert [(r.algorithm, r.seed) for r in report.rows] == [
            ("alg1", 0),
            ("alg1", 1),
            ("step", 0),
            ("step", 1),
        ]
        assert all(r.stabilized for r in report.rows)
        assert report.executed == 4 and report.cache_hits == 0

    def test_parallel_rows_equal_serial_rows(self, spec, tmp_path):
        serial = run_experiment(spec, jobs=1, cache=False)
        parallel = run_experiment(spec, jobs=2, cache=False)
        assert serial.rows == parallel.rows  # wall_time_s excluded from eq

    def test_second_invocation_is_cache_hit(self, spec, tmp_path):
        first = run_experiment(spec, jobs=1, results_dir=tmp_path)
        second = run_experiment(spec, jobs=1, results_dir=tmp_path)
        assert second.executed == 0
        assert second.cache_hits == spec.size()
        assert second.rows == first.rows

    def test_partial_cache_runs_only_missing_cells(self, spec, tmp_path):
        narrow = ExperimentSpec(
            name=spec.name,
            algorithms=spec.algorithms,
            scenarios=spec.scenarios,
            seeds=(0,),
            window=spec.window,
        )
        run_experiment(narrow, jobs=1, results_dir=tmp_path)
        # The wider grid hashes differently, so it gets its own file and
        # recomputes everything...
        wide = run_experiment(spec, jobs=1, results_dir=tmp_path)
        assert wide.executed == spec.size()
        # ...but re-running the wide grid after deleting one line only
        # recomputes that one cell.
        store = ResultStore(tmp_path)
        path = store.path_for(spec)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        repaired = run_experiment(spec, jobs=1, results_dir=tmp_path)
        assert repaired.executed == 1 and repaired.cache_hits == spec.size() - 1
        assert repaired.rows == wide.rows

    def test_events_fired_travel_in_rows(self, spec, tmp_path):
        report = run_experiment(spec, jobs=1, cache=False)
        assert all(r.events_fired > 0 for r in report.rows)


class TestErrorCapture:
    @pytest.fixture()
    def bad_spec(self):
        # A ref with n=1 is a well-formed spec, but the worker's
        # scenario build refuses it, so the failure happens inside the
        # worker and must come back captured.
        return ExperimentSpec(
            name="bad",
            algorithms=(AlgorithmRef("alg1", "alg1"),),
            scenarios=(ScenarioRef.make("nominal", {"n": 1, "horizon": 500.0}),),
            seeds=(0,),
        )

    def test_strict_mode_raises_engine_error(self, bad_spec, tmp_path):
        with pytest.raises(EngineError, match="1 cell"):
            run_experiment(bad_spec, jobs=1, results_dir=tmp_path)

    def test_non_strict_returns_traceback(self, bad_spec, tmp_path):
        report = run_experiment(bad_spec, jobs=1, results_dir=tmp_path, strict=False)
        assert not report.ok and report.rows == []
        assert "at least two processes" in report.failures[0].error

    def test_failures_are_not_cached(self, bad_spec, tmp_path):
        run_experiment(bad_spec, jobs=1, results_dir=tmp_path, strict=False)
        report = run_experiment(bad_spec, jobs=1, results_dir=tmp_path, strict=False)
        assert report.executed == 1  # re-attempted, not served from cache

    def test_worker_death_does_not_orphan_healthy_cells(self, tmp_path, monkeypatch):
        # A cell whose worker dies abruptly (os._exit, like an OOM kill)
        # breaks the whole process pool; healthy cells queued behind it
        # must still complete via the isolated retry, and only the
        # poisonous cell may be reported as failed.
        import os
        import sys
        from pathlib import Path

        # Workers must be able to import killer_scenarios under every
        # multiprocessing start method: sys.path covers fork (children
        # inherit parent memory), PYTHONPATH covers spawn/forkserver
        # (children re-read the environment).
        helper_dir = str(Path(__file__).parent)
        sys.path.insert(0, helper_dir)
        existing = os.environ.get("PYTHONPATH", "")
        monkeypatch.setenv(
            "PYTHONPATH", helper_dir + (os.pathsep + existing if existing else "")
        )
        try:
            spec = ExperimentSpec(
                name="broken-pool",
                algorithms=(AlgorithmRef("alg1", "alg1"),),
                scenarios=(
                    ScenarioRef.make("nominal", {"n": 3, "horizon": 800.0}),
                    ScenarioRef.make("killer_scenarios:kill_scenario"),
                    ScenarioRef.make("nominal", {"n": 3, "horizon": 900.0}),
                ),
                seeds=(0,),
            )
            report = run_experiment(spec, jobs=2, results_dir=tmp_path, strict=False)
        finally:
            sys.path.pop(0)
        assert len(report.rows) == 2  # both nominal cells completed
        assert {r.horizon for r in report.rows} == {800.0, 900.0}
        assert len(report.failures) == 1
        assert "worker failure" in report.failures[0].error

    def test_engine_error_with_blank_traceback(self):
        # Regression: a truthy-but-whitespace error string used to make
        # the EngineError constructor itself raise IndexError.
        from repro.engine.worker import CellOutcome

        err = EngineError([CellOutcome(key=("alg1", "s", 0), error="\n")])
        assert "?" in str(err)
        assert "1 cell(s) failed" in str(err)

    def test_engine_error_heads_and_overflow(self):
        from repro.engine.worker import CellOutcome

        failures = [
            CellOutcome(key=("alg1", "s", seed), error=f"Boom\nLine {seed}")
            for seed in range(7)
        ]
        err = EngineError(failures)
        assert "Line 0" in str(err) and "Line 4" in str(err)
        assert "... and 2 more" in str(err)

    def test_good_cells_survive_a_poisoned_grid(self, tmp_path):
        mixed = ExperimentSpec(
            name="mixed",
            algorithms=(AlgorithmRef("alg1", "alg1"),),
            scenarios=(
                ScenarioRef.make("nominal", {"n": 3, "horizon": 1500.0}),
                ScenarioRef.make("nominal", {"n": 1, "horizon": 500.0}),
            ),
            seeds=(0,),
        )
        report = run_experiment(mixed, jobs=1, results_dir=tmp_path, strict=False)
        assert len(report.rows) == 1 and report.rows[0].stabilized
        assert len(report.failures) == 1
        # The good cell was cached despite the failure.
        again = run_experiment(mixed, jobs=1, results_dir=tmp_path, strict=False)
        assert again.cache_hits == 1 and again.executed == 1
