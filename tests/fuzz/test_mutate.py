"""One-axis mutation operators: structural rules and determinism."""

from __future__ import annotations

import random
from dataclasses import fields

import pytest

from repro.faults.plan import FaultEvent, FaultPlan
from repro.fuzz.genome import BASELINE_GENOME, ScenarioGenome
from repro.fuzz.mutate import MAX_PLAN_FAULTS, _mutable_axes, mutate, random_genome


def axis_diff(a: ScenarioGenome, b: ScenarioGenome) -> list:
    return [f.name for f in fields(a) if getattr(a, f.name) != getattr(b, f.name)]


class TestSingleStep:
    @pytest.mark.parametrize("seed", range(30))
    def test_every_mutation_touches_at_most_the_promised_axes(self, seed):
        rng = random.Random(seed)
        genome = BASELINE_GENOME
        for _ in range(12):
            child = mutate(genome, rng)
            diff = axis_diff(genome, child)
            if diff == []:
                # Only the faults axis may no-op textually (a fresh plan
                # can only equal the old one by hash collision) -- never
                # reached in practice, but the invariant is "no hidden
                # multi-axis step", which an empty diff satisfies.
                continue
            if "backend" in diff and child.backend == "shared":
                # The collapse back to shared resets emulated-only axes.
                assert set(diff) <= {
                    "backend", "replicas", "links", "consistency",
                    "fault_plan", "membership_plan",
                }
            else:
                assert len(diff) == 1, diff
            genome = child


class TestAxisRules:
    def test_shared_genomes_offer_no_emulated_axes(self):
        axes = _mutable_axes(BASELINE_GENOME)
        assert "links" not in axes
        assert "replicas" not in axes
        assert "consistency" not in axes
        assert "faults" not in axes
        assert "membership" not in axes

    def test_faulted_genomes_freeze_links_replicas_and_membership(self):
        pair = (
            FaultEvent(kind="replica-crash", at=100.0, replica=1),
            FaultEvent(kind="replica-recover", at=300.0, replica=1),
        )
        axes = _mutable_axes(ScenarioGenome(backend="emulated", fault_plan=pair))
        assert "links" not in axes
        assert "replicas" not in axes
        assert "membership" not in axes
        assert "faults" in axes  # clearing the plan stays offered

    def test_non_sync_links_freeze_the_timeline_axes(self):
        axes = _mutable_axes(ScenarioGenome(backend="emulated", links="lossy"))
        assert "faults" not in axes
        assert "membership" not in axes
        assert "links" in axes

    def test_churned_genomes_freeze_links_replicas_and_faults(self):
        from repro.memory.membership import churn_plan

        plan = churn_plan(3, 4500.0)
        axes = _mutable_axes(
            ScenarioGenome(backend="emulated", membership_plan=plan.events)
        )
        assert "links" not in axes
        assert "replicas" not in axes
        assert "faults" not in axes
        assert "membership" in axes  # clearing the plan stays offered

    def test_membership_mutations_keep_a_quorum_alive(self):
        from repro.memory.membership import MembershipPlan

        rng = random.Random(5)
        seen_plans = 0
        genome = ScenarioGenome(backend="emulated")
        for _ in range(300):
            genome = mutate(genome, rng)
            if genome.backend != "emulated":
                genome = ScenarioGenome(backend="emulated")
            if genome.membership_plan:
                seen_plans += 1
                plan = MembershipPlan(genome.membership_plan)
                # validate() enforces >= 2 members after every event.
                plan.validate(genome.replicas)
                for _at, members in plan.member_timeline(genome.replicas):
                    assert len(members) >= 2
        assert seen_plans > 0

    def test_generated_plans_respect_the_group_budget(self):
        rng = random.Random(3)
        seen_plans = 0
        genome = ScenarioGenome(backend="emulated")
        for _ in range(300):
            genome = mutate(genome, rng)
            if genome.backend != "emulated":
                genome = ScenarioGenome(backend="emulated")
            if genome.fault_plan:
                seen_plans += 1
                assert len(FaultPlan(genome.fault_plan).groups()) <= MAX_PLAN_FAULTS
        assert seen_plans > 0


class TestDeterminism:
    def test_identical_streams_mutate_identically(self):
        a_rng, b_rng = random.Random("s"), random.Random("s")
        a = b = BASELINE_GENOME
        for _ in range(60):
            a, b = mutate(a, a_rng), mutate(b, b_rng)
            assert a == b

    def test_random_genome_is_a_pure_function_of_the_stream(self):
        seq_a = [random_genome(random.Random(f"g:{i}")).key() for i in range(40)]
        seq_b = [random_genome(random.Random(f"g:{i}")).key() for i in range(40)]
        assert seq_a == seq_b
        assert len(set(seq_a)) > 5  # the space is actually explored
