"""The sweep driver."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.algorithm1 import WriteEfficientOmega
from repro.core.variants import StepCounterOmega
from repro.workloads.scenarios import Scenario, nominal
from repro.workloads.sweep import SweepRow, run_matrix, stabilization_rate, summarize_result


@pytest.fixture(scope="module")
def rows():
    return run_matrix(
        {"alg1": WriteEfficientOmega, "step": StepCounterOmega},
        [nominal(n=3, horizon=1500.0)],
        seeds=[0, 1],
        window=100.0,
    )


class TestRunMatrix:
    def test_row_count(self, rows):
        assert len(rows) == 4  # 2 algorithms x 1 scenario x 2 seeds

    def test_labels_preferred(self, rows):
        assert {r.algorithm for r in rows} == {"alg1", "step"}

    def test_all_stabilize_nominal(self, rows):
        stab, total = stabilization_rate(rows)
        assert (stab, total) == (4, 4)

    def test_rows_carry_census(self, rows):
        for row in rows:
            assert row.forever_writer_count == 1
            assert row.single_writer
            assert row.growing_register_count == 1
            assert row.valid and row.termination_ok

    def test_cells_match_headers(self, rows):
        for row in rows:
            assert len(row.cells()) == len(SweepRow.headers())


class TestMutatedScenario:
    def test_post_construction_mutation_is_honored(self):
        # A mutated factory scenario no longer matches its ref; the
        # matrix must run the *live* object, not a stale rebuild.
        scen = nominal(n=4, horizon=1500.0)
        scen.n = 3
        rows = run_matrix({"alg1": WriteEfficientOmega}, [scen], seeds=[0])
        assert [row.n for row in rows] == [3]

    def test_handbuilt_scenario_runs_in_process(self):
        from repro.workloads.scenarios import Scenario

        bare = Scenario(name="bare", n=3, horizon=1000.0)
        rows = run_matrix({"alg1": WriteEfficientOmega}, [bare], seeds=[0])
        assert len(rows) == 1 and rows[0].scenario == "bare"

    def test_mixed_matrix_keeps_engine_for_faithful_scenarios(self, tmp_path):
        # One hand-built scenario must not disable caching/parallelism
        # for the factory scenarios around it.
        from repro.workloads.scenarios import Scenario

        factory_scen = nominal(n=3, horizon=1500.0)
        bare = Scenario(name="bare", n=3, horizon=1000.0)
        mixed = [factory_scen, bare, nominal(n=3, horizon=1500.0)]
        rows = run_matrix(
            {"alg1": WriteEfficientOmega}, mixed, seeds=[0], cache=True,
            results_dir=tmp_path,
        )
        assert [r.scenario for r in rows] == ["nominal-n3", "bare", "nominal-n3"]
        # The factory cells were cached (one spec file exists)...
        assert list(tmp_path.glob("*.jsonl"))
        # ...and a re-run reproduces the same rows in the same order.
        again = run_matrix(
            {"alg1": WriteEfficientOmega}, mixed, seeds=[0], cache=True,
            results_dir=tmp_path,
        )
        assert [r.canonical_json() for r in again] == [r.canonical_json() for r in rows]


def _mutated(field):
    """A value that differs from what ``nominal`` puts in ``field``."""
    value = getattr(nominal(n=3, horizon=1500.0), field.name)
    if value is None:
        return (lambda *args: None) if field.name.startswith(("make_", "scramble")) else 7.0
    if callable(value):
        return None
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return "atomic" if field.name == "consistency" else value + "-x"
    return {**value, "x": 1}


class TestRefIsFaithful:
    def test_untouched_factory_scenario_is_faithful(self):
        from repro.workloads.sweep import _ref_is_faithful

        assert _ref_is_faithful(nominal(n=3, horizon=1500.0))

    @pytest.mark.parametrize(
        "field",
        [f for f in dataclasses.fields(Scenario) if f.compare],
        ids=lambda f: f.name,
    )
    def test_mutating_any_field_flips_the_verdict(self, field):
        from repro.workloads.sweep import _ref_is_faithful

        scen = nominal(n=3, horizon=1500.0)
        setattr(scen, field.name, _mutated(field))
        assert not _ref_is_faithful(scen)


class TestSummarizeResult:
    def test_summary_fields(self):
        scen = nominal(n=3, horizon=1500.0)
        result = scen.run(WriteEfficientOmega, seed=3)
        row = summarize_result(result, scen)
        assert row.n == 3
        assert row.seed == 3
        assert row.scenario == scen.name
        assert row.total_writes == result.memory.total_writes
