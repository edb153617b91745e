"""An (algorithm x scenario x seed) grid of scenarios, and the scenarios
that cannot join one.

Factory-built scenarios run as a grid through the engine
(:func:`repro.engine.driver.run_experiment`); a hand-built scenario or a
``dataclasses.replace`` copy has no factory ref, so the engine refuses
it and it runs in-process (``scenario.run(...).summarize(...)``).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import SWEEP_HEADERS, _sweep_cells
from repro.core.algorithm1 import WriteEfficientOmega
from repro.core.variants import StepCounterOmega
from repro.engine import ExperimentSpec, run_experiment
from repro.workloads.registry import build_scenario
from repro.workloads.scenarios import Scenario, nominal, nominal_emulated


@pytest.fixture(scope="module")
def rows():
    spec = ExperimentSpec.from_objects(
        "grid",
        {"alg1": WriteEfficientOmega, "step": StepCounterOmega},
        [nominal(n=3, horizon=1500.0)],
        [0, 1],
        window=100.0,
    )
    return run_experiment(spec, jobs=1, cache=False).rows


def _in_process(scen, seed=0):
    """One cell run and summarized in-process."""
    return scen.run(WriteEfficientOmega, seed=seed).summarize(
        scenario_name=scen.name, margin=scen.margin, assumption=scen.assumption
    )


class TestRunMatrix:
    def test_row_count(self, rows):
        assert len(rows) == 4  # 2 algorithms x 1 scenario x 2 seeds

    def test_labels_preferred(self, rows):
        assert {r.algorithm for r in rows} == {"alg1", "step"}

    def test_all_stabilize_nominal(self, rows):
        assert sum(r.stabilized for r in rows) == len(rows) == 4

    def test_rows_carry_census(self, rows):
        for row in rows:
            assert row.forever_writer_count == 1
            assert row.single_writer
            assert row.growing_register_count == 1
            assert row.valid and row.termination_ok

    def test_cells_match_headers(self, rows):
        for row in rows:
            assert len(_sweep_cells(row)) == len(SWEEP_HEADERS)


class TestMutatedScenario:
    def test_post_construction_mutation_is_honored(self):
        # A scenario is frozen; its altered copy drops the factory ref,
        # so no stale rebuild can stand in for it, and running the copy
        # honors the altered field.
        scen = dataclasses.replace(nominal(n=4, horizon=1500.0), n=3)
        assert scen.ref is None
        assert _in_process(scen).n == 3

    def test_handbuilt_scenario_runs_in_process(self):
        bare = Scenario(name="bare", n=3, horizon=1000.0)
        row = _in_process(bare)
        assert row.scenario == "bare" and row.n == 3


def _base(field):
    """The factory scenario ``field`` is mutated on: only an emulated
    scenario may carry emulation knobs."""
    factory = nominal_emulated if field.name == "emulation" else nominal
    return factory(n=3, horizon=1500.0)


def _mutated(field):
    """A value that differs from what :func:`_base` puts in ``field``."""
    value = getattr(_base(field), field.name)
    if value is None:
        return (lambda *args: None) if field.name.startswith(("make_", "scramble")) else 7.0
    if callable(value):
        return None
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if field.name == "memory":
        return "emulated"  # construction refuses an unknown backend name
    if isinstance(value, str):
        return value + "-x"
    # Construction refuses an unknown emulation knob, so change a real one.
    return {**value, "retry_interval": value.get("retry_interval", 20.0) + 1}


class TestRefIsFaithful:
    def test_untouched_factory_scenario_is_faithful(self):
        # The ref rebuilds the same scenario (the make_* closures cannot
        # be compared, so only their presence is).
        scen = nominal(n=3, horizon=1500.0)
        rebuilt = build_scenario(*scen.ref)
        for field in dataclasses.fields(Scenario):
            mine, theirs = getattr(scen, field.name), getattr(rebuilt, field.name)
            if callable(mine) or callable(theirs):
                assert (mine is None) == (theirs is None), field.name
            else:
                assert mine == theirs, field.name

    @pytest.mark.parametrize(
        "field",
        [f for f in dataclasses.fields(Scenario) if f.compare],
        ids=lambda f: f.name,
    )
    def test_mutating_any_field_flips_the_verdict(self, field):
        # Whatever field a copy changes, the copy has no ref, and the
        # engine's verdict on it flips from accepted to refused.
        scen = _base(field)
        ExperimentSpec.from_objects("t", {"alg1": WriteEfficientOmega}, [scen], [0])
        changed = dataclasses.replace(scen, **{field.name: _mutated(field)})
        assert changed.ref is None
        with pytest.raises(ValueError, match="has no factory ref"):
            ExperimentSpec.from_objects("t", {"alg1": WriteEfficientOmega}, [changed], [0])


class TestSummarizeResult:
    def test_summary_fields(self):
        scen = nominal(n=3, horizon=1500.0)
        result = scen.run(WriteEfficientOmega, seed=3)
        row = result.summarize(scenario_name=scen.name)
        assert row.n == 3
        assert row.seed == 3
        assert row.scenario == scen.name
        assert row.total_writes == result.memory.total_writes
