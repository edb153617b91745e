"""Scenario library: construction, determinism, knobs."""

from __future__ import annotations

import pytest

from repro.core.algorithm1 import WriteEfficientOmega
from repro.workloads.scenarios import (
    ablation,
    all_but_one,
    async_bursts,
    awb_only,
    capped_timers,
    cascade,
    chaotic_timers,
    ev_sync,
    gst_ramp,
    leader_crash,
    leader_storm,
    near_all_cascade,
    nominal,
    san,
    scrambled,
    slow_leader_awb,
    timely_churn,
)

ALL_SCENARIO_FACTORIES = [
    nominal,
    chaotic_timers,
    leader_crash,
    cascade,
    all_but_one,
    awb_only,
    ev_sync,
    scrambled,
    san,
    capped_timers,
    slow_leader_awb,
    leader_storm,
    gst_ramp,
    async_bursts,
    near_all_cascade,
    timely_churn,
]


class TestConstruction:
    @pytest.mark.parametrize("factory", ALL_SCENARIO_FACTORIES, ids=lambda f: f.__name__)
    def test_builds_a_run(self, factory):
        scen = factory()
        run = scen.build(WriteEfficientOmega, seed=0)
        assert run.n == scen.n
        assert run.horizon == scen.horizon

    @pytest.mark.parametrize("factory", ALL_SCENARIO_FACTORIES, ids=lambda f: f.__name__)
    def test_names_unique_and_descriptive(self, factory):
        scen = factory()
        assert scen.name
        assert scen.description

    def test_leader_crash_has_crash_plan(self):
        run = leader_crash(n=4).build(WriteEfficientOmega, seed=0)
        assert run.crash_plan.faulty == frozenset({0})

    def test_all_but_one_leaves_survivor(self):
        run = all_but_one(n=5, survivor=3).build(WriteEfficientOmega, seed=0)
        assert run.crash_plan.correct == frozenset({3})

    def test_san_attaches_disk(self):
        run = san(n=3).build(WriteEfficientOmega, seed=0)
        assert run.disk is not None

    def test_nominal_has_no_disk(self):
        run = nominal(n=3).build(WriteEfficientOmega, seed=0)
        assert run.disk is None

    def test_overrides_win(self):
        run = nominal(n=3).build(WriteEfficientOmega, seed=0, horizon=123.0)
        assert run.horizon == 123.0


class TestAdversarialSuite:
    def test_leader_storm_targets_lexmin_favourites(self):
        run = leader_storm(n=5, crashes=3).build(WriteEfficientOmega, seed=0)
        # The storm kills the next-in-line lexmin candidates, in order.
        assert run.crash_plan.faulty == frozenset({0, 1, 2})
        times = [run.crash_plan.crash_time(pid) for pid in (0, 1, 2)]
        assert times == sorted(times)
        # Bursts of 2: pids 0 and 1 die in the same storm, pid 2 later.
        assert times[1] - times[0] < times[2] - times[1]

    def test_near_all_cascade_leaves_requested_survivors(self):
        run = near_all_cascade(n=6, survivors=2).build(WriteEfficientOmega, seed=0)
        assert run.crash_plan.correct == frozenset({4, 5})

    def test_near_all_cascade_validates_survivors(self):
        with pytest.raises(ValueError):
            near_all_cascade(n=4, survivors=0)

    def test_assumption_declarations(self):
        # The property checkers trust these: AWB-satisfying adversaries
        # declare "awb", the AWB2-violating scenario declares "none",
        # and only ev_sync promises full eventual synchrony.
        for factory in (leader_storm, gst_ramp, async_bursts, near_all_cascade,
                        timely_churn, awb_only, nominal):
            assert factory().assumption == "awb", factory.__name__
        assert ev_sync().assumption == "ev-sync"
        assert capped_timers().assumption == "none"

    def test_ablation_assumption_follows_timeout_policy(self):
        assert ablation().assumption == "awb"
        assert ablation(timeout_policy="max").assumption == "awb"
        assert ablation(timeout_policy="sum").assumption == "none"
        assert ablation(timeout_policy="const", const_timeout=4.0).assumption == "none"
        assert ablation(f_kind="log", assumption="none").assumption == "none"

    def test_factories_are_engine_rebuildable(self):
        # Every adversarial factory must attach a picklable ref so the
        # parallel engine can rebuild it inside worker processes.
        from repro.workloads.registry import build_scenario

        for factory in (leader_storm, gst_ramp, async_bursts,
                        near_all_cascade, timely_churn):
            scen = factory()
            name, kwargs = scen.ref
            rebuilt = build_scenario(name, kwargs)
            for field in ("name", "n", "horizon", "margin", "assumption"):
                assert getattr(rebuilt, field) == getattr(scen, field), factory.__name__


class TestConsistencyFamily:
    def test_recorder_off_in_the_abd_regular_factory(self):
        """The repo benchmark's `abd-regular` cells run `nominal-emulated`;
        its factory must keep both the write-back phase and the history
        recorder off so the benchmarked protocol stays the regular
        single-phase one."""
        from repro.memory.emulated import EmulationConfig
        from repro.workloads.registry import build_scenario

        scen = build_scenario("nominal-emulated", {"n": 8})
        config = EmulationConfig.from_dict(scen.emulation)
        assert "consistency" not in scen.emulation  # the emulation's default
        assert config.record_history is False and config.consistency == "regular"

    def test_emulation_dict_consistency_key_is_honoured(self):
        """A hand-built scenario sets the level through the emulation
        dict, the one place a scenario carries it; building must honour
        it."""
        from repro.core.algorithm1 import WriteEfficientOmega
        from repro.workloads.scenarios import Scenario

        scen = Scenario(
            name="hand",
            n=3,
            horizon=100.0,
            memory="emulated",
            emulation={"consistency": "atomic"},
        )
        run = scen.build(WriteEfficientOmega, seed=0)
        assert run.memory.config.consistency == "atomic"

    def test_recorder_on_in_the_atomic_check_scenarios(self):
        """`repro check`'s atomic cells must actually record, or the
        audit would be vacuous."""
        from repro.cli import CHECK_SCENARIOS
        from repro.memory.emulated import EmulationConfig
        from repro.workloads.registry import build_scenario

        for name in ("nominal-emulated-atomic", "replica-crash-atomic"):
            assert name in CHECK_SCENARIOS
            scen = build_scenario(name, {})
            assert scen.emulation["consistency"] == "atomic"
            assert EmulationConfig.from_dict(scen.emulation).record_history is True

    def test_atomic_factories_are_engine_rebuildable(self):
        from repro.workloads.registry import build_scenario
        from repro.workloads.scenarios import (
            nominal_emulated_atomic,
            replica_crash_atomic,
        )

        for factory in (nominal_emulated_atomic, replica_crash_atomic):
            scen = factory()
            name, kwargs = scen.ref
            rebuilt = build_scenario(name, kwargs)
            for field in ("name", "n", "horizon", "emulation", "memory"):
                assert getattr(rebuilt, field) == getattr(scen, field), factory.__name__


class TestFuzzCellValidation:
    """Every composed axis is rejected at factory time: the kwargs come
    from corpus / pinned-repro JSON, and a bad one must not survive
    until a worker process builds the run."""

    @pytest.mark.parametrize(
        "axis, choices",
        [
            ("delay", "['uniform', 'gst-ramp', 'bursts']"),
            ("crash", "['none', 'leader', 'minority-cascade']"),
            ("backend", "['shared', 'emulated']"),
            ("links", None),
            ("consistency", "['regular', 'atomic']"),
        ],
    )
    @pytest.mark.parametrize("backend", ["shared", "emulated"])
    def test_unknown_value_rejected(self, axis, choices, backend):
        from repro.memory.emulated import LINK_MODELS
        from repro.workloads.scenarios import fuzz_cell

        choices = choices or str(list(LINK_MODELS))
        with pytest.raises(ValueError) as excinfo:
            fuzz_cell(**{"backend": backend, axis: "bogus"})
        assert str(excinfo.value) == f"unknown fuzz {axis} 'bogus'; choose from {choices}"

    def test_links_stay_open_to_every_link_model(self):
        from repro.fuzz.genome import GENOME_CRASHES, GENOME_DELAYS
        from repro.memory.emulated import LINK_MODELS
        from repro.workloads.scenarios import FUZZ_CRASHES, FUZZ_DELAYS, fuzz_cell

        for links in LINK_MODELS:  # corruption / timely stay reachable by hand
            assert fuzz_cell(backend="emulated", links=links).emulation["links"] == links
        # One declaration: the genome vocabularies are the part tables' keys.
        assert GENOME_DELAYS == tuple(FUZZ_DELAYS) == ("uniform", "gst-ramp", "bursts")
        assert GENOME_CRASHES == tuple(FUZZ_CRASHES) == ("none", "leader", "minority-cascade")


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        scen = nominal(n=3, horizon=1500.0)
        a = scen.run(WriteEfficientOmega, seed=5)
        b = scen.run(WriteEfficientOmega, seed=5)
        assert a.trace.leader_samples() == b.trace.leader_samples()

    def test_scramble_applies_before_start(self):
        scen = scrambled(n=3)
        run = scen.build(WriteEfficientOmega, seed=1)
        # The algorithm's local copies must match the scrambled values.
        for alg in run.algorithms:
            assert alg._my_suspicions == [
                run.memory.register(f"SUSPICIONS[{alg.pid}][{k}]").peek() for k in range(3)
            ]
