"""The random-fault fuzz scenario: sampling the fault space by seed."""

from __future__ import annotations

import pytest

from repro.core.algorithm1 import WriteEfficientOmega
from repro.core.variants import StepCounterOmega
from repro.workloads.scenarios import random_faults

SEEDS = list(range(8))


class TestRandomFaults:
    def test_patterns_vary_across_seeds(self):
        scen = random_faults(n=5)
        plans = {
            tuple(sorted(scen.build(WriteEfficientOmega, seed=s).crash_plan.crash_times))
            for s in SEEDS
        }
        assert len(plans) > 1

    def test_same_seed_same_pattern(self):
        scen = random_faults(n=5)
        a = scen.build(WriteEfficientOmega, seed=3).crash_plan
        b = scen.build(WriteEfficientOmega, seed=3).crash_plan
        assert a.crash_times == b.crash_times

    def test_never_kills_everyone(self):
        scen = random_faults(n=4)
        for s in range(30):
            plan = scen.build(WriteEfficientOmega, seed=s).crash_plan
            assert len(plan.correct) >= 1

    def test_max_failures_respected(self):
        scen = random_faults(n=6, max_failures=2)
        for s in range(20):
            plan = scen.build(WriteEfficientOmega, seed=s).crash_plan
            assert len(plan.crash_times) <= 2

    @pytest.mark.parametrize("seed", SEEDS)
    def test_alg1_survives_fuzzed_faults(self, seed):
        scen = random_faults(n=5)
        result = scen.run(WriteEfficientOmega, seed=seed)
        report = result.stabilization(margin=scen.margin)
        assert report.holds, f"seed {seed}: {report.final_by_pid}"
        assert report.leader_correct

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_step_counter_survives_fuzzed_faults(self, seed):
        scen = random_faults(n=5)
        result = scen.run(StepCounterOmega, seed=seed)
        report = result.stabilization(margin=scen.margin)
        assert report.holds and report.leader_correct
