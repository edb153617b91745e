"""Genome shrinking, mostly with synthetic (no-simulation) oracles."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.engine.search import replay, violation_count
from repro.faults.plan import FaultEvent
from repro.fuzz.genome import BASELINE_GENOME, ScenarioGenome
from repro.fuzz.loop import FuzzConfig, pinned_repro
from repro.fuzz.shrink import shrink_genome
from tests.mutants import AMNESIA_GENOME, MUTANTS, SEARCH_HORIZON

PAIR_A = (
    FaultEvent(kind="replica-crash", at=100.0, replica=1),
    FaultEvent(kind="replica-recover", at=300.0, replica=1),
)
PAIR_B = (
    FaultEvent(kind="replica-crash", at=500.0, replica=0),
    FaultEvent(kind="replica-recover", at=700.0, replica=0),
)


class TestAxisReduction:
    def test_irrelevant_axes_are_stripped(self):
        # The "bug" only needs the bursts delay; everything else piled on
        # by mutation must shrink away.
        start = ScenarioGenome(
            algorithm="alg1-nwnr", n=5, delay="bursts", crash="leader"
        )
        result = shrink_genome(start, lambda g: g.delay == "bursts")
        assert result.genome == ScenarioGenome(delay="bursts")
        assert result.genome.complexity() == 1
        assert result.oracle_runs > 0

    def test_conjunction_of_axes_is_kept(self):
        start = ScenarioGenome(delay="bursts", crash="leader", n=4)
        result = shrink_genome(
            start, lambda g: g.delay == "bursts" and g.crash == "leader"
        )
        assert result.genome == ScenarioGenome(delay="bursts", crash="leader")
        assert result.genome.complexity() == 2

    def test_backend_collapse_requires_baseline_emulated_axes(self):
        # A violation independent of the backend must shrink all the way
        # back to the shared baseline -- including the big collapse step.
        start = ScenarioGenome(
            backend="emulated", replicas=5, consistency="atomic", crash="leader"
        )
        result = shrink_genome(start, lambda g: g.crash == "leader")
        assert result.genome == ScenarioGenome(crash="leader")

    def test_emulated_only_violation_keeps_the_backend(self):
        start = ScenarioGenome(backend="emulated", links="lossy", n=4)
        result = shrink_genome(start, lambda g: g.backend == "emulated")
        assert result.genome == ScenarioGenome(backend="emulated")
        assert result.genome.complexity() == 1


class TestFaultPlanStage:
    def test_plan_free_violation_drops_the_whole_timeline(self):
        start = ScenarioGenome(backend="emulated", fault_plan=PAIR_A + PAIR_B)
        result = shrink_genome(start, lambda g: g.backend == "emulated")
        assert result.genome.fault_plan == ()
        assert "faults->()" in result.steps

    def test_needed_group_survives_ddmin(self):
        def needs_pair_a(g: ScenarioGenome) -> bool:
            return g.backend == "emulated" and PAIR_A[0] in g.fault_plan

        start = ScenarioGenome(backend="emulated", fault_plan=PAIR_A + PAIR_B)
        result = shrink_genome(start, needs_pair_a)
        assert result.genome.fault_plan == PAIR_A
        assert result.genome.complexity() == 2

    def test_broken_resync_is_kept_when_it_carries_the_violation(self):
        # The real oracle under the skip-resync mutant: both crash/recover
        # pairs carry the violation (one amnesiac replica alone cannot
        # corrupt a majority), so both survive; the noise axis does not.
        config = FuzzConfig(jobs=1, horizon=SEARCH_HORIZON)

        def amnesia(g: ScenarioGenome) -> bool:
            return violation_count(replay(pinned_repro(g, config))) > 0

        start = replace(AMNESIA_GENOME, n=4)
        with MUTANTS["skip-resync"].applied():
            result = shrink_genome(start, amnesia)
        assert result.genome == AMNESIA_GENOME  # n reduced, timeline kept
        assert not amnesia(result.genome)  # clean on the real emulation


class TestBudget:
    def test_oracle_budget_is_respected(self):
        calls = []

        def oracle(g: ScenarioGenome) -> bool:
            calls.append(g)
            return True

        start = ScenarioGenome(
            backend="emulated", replicas=5, consistency="atomic",
            delay="bursts", crash="leader", n=5, fault_plan=PAIR_A,
        )
        result = shrink_genome(start, oracle, max_oracle_runs=3)
        assert result.oracle_runs <= 3 + 1  # the ddmin stage may finish its probe
        assert len(calls) == result.oracle_runs

    def test_shrunk_genome_always_violates(self):
        # 1-minimality contract: the result itself passed the oracle.
        witnessed = []

        def oracle(g: ScenarioGenome) -> bool:
            ok = g.delay == "bursts"
            if ok:
                witnessed.append(g)
            return ok

        start = ScenarioGenome(delay="bursts", crash="minority-cascade", n=4)
        result = shrink_genome(start, oracle)
        assert result.genome in witnessed


@pytest.mark.parametrize("axis", ["delay", "crash", "n", "algorithm"])
def test_single_axis_violations_shrink_to_complexity_one(axis):
    values = {"delay": "gst-ramp", "crash": "leader", "n": 5, "algorithm": "alg1-no-timer"}
    minimal = ScenarioGenome(**{axis: values[axis]})
    # Pile two unrelated axes on top, then require only `axis` back.
    noisy = replace(minimal, backend="emulated", consistency="atomic")
    result = shrink_genome(noisy, lambda g: getattr(g, axis) == values[axis])
    assert result.genome == minimal
    assert result.genome.complexity() == 1
