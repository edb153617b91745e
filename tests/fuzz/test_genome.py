"""ScenarioGenome: validation, derived horizons, JSON round trips."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultEvent
from repro.memory.membership import MembershipEvent
from repro.fuzz.genome import (
    BASELINE_GENOME,
    GENOME_ALGORITHMS,
    GENOME_AXES,
    GENOME_BACKENDS,
    GENOME_CONSISTENCY,
    GENOME_CRASHES,
    GENOME_DELAYS,
    GENOME_LINKS,
    GENOME_NS,
    GENOME_REPLICAS,
    ScenarioGenome,
)
from repro.fuzz.mutate import random_genome

PAIR = (
    FaultEvent(kind="replica-crash", at=100.0, replica=1),
    FaultEvent(kind="replica-recover", at=300.0, replica=1),
)

CHURN = (
    MembershipEvent(kind="join", at=400.0, replica=3),
    MembershipEvent(kind="leave", at=800.0, replica=0),
)


class TestValidation:
    def test_baseline_is_the_default(self):
        assert BASELINE_GENOME == ScenarioGenome()
        assert BASELINE_GENOME.complexity() == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"algorithm": "alg2"},  # excluded: needs ~10x the horizon
            {"backend": "virtual"},
            {"n": 6},
            {"delay": "corrupted"},
            {"crash": "all"},
            {"replicas": 4},  # even replica counts are off-vocabulary
            {"links": "corruption"},  # the known-negative adversary
            {"consistency": "causal"},
        ],
    )
    def test_off_vocabulary_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioGenome(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"replicas": 5},
            {"links": "lossy"},
            {"consistency": "atomic"},
            {"fault_plan": PAIR},
            {"resync": False},
            {"membership_plan": CHURN},
            {"transition": "single-config"},
        ],
    )
    def test_shared_backend_forces_emulated_axes_to_baseline(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioGenome(backend="shared", **kwargs)
        ScenarioGenome(backend="emulated", **kwargs)  # legal there

    def test_fault_plans_require_the_sync_fabric(self):
        with pytest.raises(ValueError):
            ScenarioGenome(backend="emulated", links="lossy", fault_plan=PAIR)

    def test_membership_plans_require_the_sync_fabric(self):
        with pytest.raises(ValueError):
            ScenarioGenome(backend="emulated", links="lossy", membership_plan=CHURN)

    def test_membership_plan_validated_against_replicas(self):
        # A join of replica 3 is out of order when 5 replicas exist.
        with pytest.raises(ValueError):
            ScenarioGenome(backend="emulated", replicas=5, membership_plan=CHURN)
        ScenarioGenome(backend="emulated", replicas=3, membership_plan=CHURN)

    def test_off_vocabulary_transition_rejected(self):
        with pytest.raises(ValueError):
            ScenarioGenome(backend="emulated", transition="triple-config")

    def test_fault_plan_replica_indices_validated(self):
        storm = (
            FaultEvent(kind="replica-crash", at=50.0, replica=4),
            FaultEvent(kind="replica-recover", at=90.0, replica=4),
        )
        with pytest.raises(ValueError):
            ScenarioGenome(backend="emulated", replicas=3, fault_plan=storm)
        ScenarioGenome(backend="emulated", replicas=5, fault_plan=storm)


class TestAxisTable:
    def test_the_table_declares_exactly_the_dataclass_fields_in_order(self):
        assert list(GENOME_AXES) == [f.name for f in dataclasses.fields(ScenarioGenome)]

    def test_baseline_values_are_in_vocabulary(self):
        for name, axis in GENOME_AXES.items():
            if axis.vocabulary:
                assert getattr(BASELINE_GENOME, name) in axis.vocabulary

    def test_off_baseline_emulated_axes_lists_them_in_field_order(self):
        g = ScenarioGenome(
            backend="emulated", consistency="atomic", replicas=5, resync=False, n=5
        )
        assert g.off_baseline_emulated_axes() == ["replicas", "consistency", "resync"]
        assert ScenarioGenome(backend="emulated", n=5).off_baseline_emulated_axes() == []

    def test_on_shared_memory_keeps_only_the_backend_neutral_axes(self):
        g = ScenarioGenome(
            algorithm="alg1-nwnr", backend="emulated", n=4, delay="bursts", crash="leader",
            replicas=5, consistency="atomic", fault_plan=PAIR, resync=False,
            transition="single-config",
        )
        assert g.on_shared_memory() == ScenarioGenome(
            algorithm="alg1-nwnr", n=4, delay="bursts", crash="leader"
        )


class TestDerivedHorizon:
    def test_shared_runs_at_the_base(self):
        assert BASELINE_GENOME.horizon(3000.0) == 3000.0

    def test_substrate_axes_scale_up_monotonically(self):
        emulated = ScenarioGenome(backend="emulated")
        lossy = ScenarioGenome(backend="emulated", links="lossy")
        atomic = ScenarioGenome(backend="emulated", links="lossy", consistency="atomic")
        horizons = [g.horizon(3000.0) for g in (BASELINE_GENOME, emulated, lossy, atomic)]
        assert horizons == sorted(horizons)
        assert len(set(horizons)) == len(horizons)

    def test_kwargs_carry_the_derived_horizon(self):
        g = ScenarioGenome(backend="emulated", consistency="atomic")
        kwargs = g.scenario_kwargs(2000.0)
        assert kwargs["horizon"] == g.horizon(2000.0)
        assert kwargs["plan"] is None


class TestComplexity:
    def test_axis_steps_count_once_each(self):
        g = ScenarioGenome(algorithm="alg1-nwnr", n=5, delay="bursts")
        assert g.complexity() == 3

    def test_fault_groups_count_as_steps(self):
        g = ScenarioGenome(backend="emulated", fault_plan=PAIR)
        assert g.complexity() == 2  # backend step + one crash/recover group

    def test_membership_plan_counts_as_one_step(self):
        g = ScenarioGenome(backend="emulated", membership_plan=CHURN)
        assert g.complexity() == 2  # backend step + the membership axis

    def test_membership_kwargs_carry_plan_and_transition(self):
        g = ScenarioGenome(
            backend="emulated", membership_plan=CHURN, transition="single-config"
        )
        kwargs = g.scenario_kwargs(2000.0)
        assert kwargs["membership"] == [ev.to_jsonable() for ev in CHURN]
        assert kwargs["transition"] == "single-config"
        assert BASELINE_GENOME.scenario_kwargs(2000.0)["membership"] is None


class TestRoundTrip:
    def test_unknown_keys_rejected(self):
        payload = BASELINE_GENOME.to_jsonable()
        payload["timer"] = "exp"
        with pytest.raises(ValueError):
            ScenarioGenome.from_jsonable(payload)

    def test_plan_survives_the_round_trip(self):
        g = ScenarioGenome(backend="emulated", fault_plan=PAIR, resync=False)
        assert ScenarioGenome.from_jsonable(g.to_jsonable()) == g

    def test_membership_plan_survives_the_round_trip(self):
        g = ScenarioGenome(
            backend="emulated", membership_plan=CHURN, transition="single-config"
        )
        clone = ScenarioGenome.from_jsonable(g.to_jsonable())
        assert clone == g and clone.key() == g.key()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_every_reachable_genome_round_trips(self, seed):
        g = random_genome(random.Random(seed), max_mutations=6)
        clone = ScenarioGenome.from_jsonable(g.to_jsonable())
        assert clone == g
        assert clone.key() == g.key()
        assert clone.scenario_kwargs() == g.scenario_kwargs()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_vocabularies_are_closed_under_mutation(self, seed):
        g = random_genome(random.Random(seed), max_mutations=8)
        assert g.algorithm in GENOME_ALGORITHMS
        assert g.backend in GENOME_BACKENDS
        assert g.n in GENOME_NS
        assert g.delay in GENOME_DELAYS
        assert g.crash in GENOME_CRASHES
        assert g.replicas in GENOME_REPLICAS
        assert g.links in GENOME_LINKS
        assert g.consistency in GENOME_CONSISTENCY
