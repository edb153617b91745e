"""Integration matrix: every algorithm under every canonical scenario.

Theorem 1's claim is universal over runs satisfying AWB; the matrix
samples that space across scenarios and seeds.  The negative scenario
(capped timers) checks the assumption is load-bearing rather than
decorative.
"""

from __future__ import annotations

import pytest

from repro.analysis.omega_props import check_validity
from repro.core.algorithm1 import WriteEfficientOmega
from repro.core.algorithm2 import BoundedOmega
from repro.core.variants import MultiWriterOmega, StepCounterOmega
from repro.workloads.scenarios import (
    all_but_one,
    awb_only,
    capped_timers,
    cascade,
    chaotic_timers,
    leader_crash,
    nominal,
    scrambled,
)

FAST_ALGORITHMS = [WriteEfficientOmega, MultiWriterOmega, StepCounterOmega]
ALL_ALGORITHMS = FAST_ALGORITHMS + [BoundedOmega]


class TestNominalMatrix:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS, ids=lambda a: a.display_name)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_stabilizes(self, algorithm, seed):
        scen = nominal(n=4)
        report = scen.run(algorithm, seed=seed).stabilization(margin=scen.margin)
        assert report.holds and report.leader_correct


class TestLeaderCrashMatrix:
    @pytest.mark.parametrize("algorithm", FAST_ALGORITHMS, ids=lambda a: a.display_name)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_reelects(self, algorithm, seed):
        scen = leader_crash(n=4)
        report = scen.run(algorithm, seed=seed).stabilization(margin=scen.margin)
        assert report.holds
        assert report.leader != 0

    def test_alg2_reelects(self):
        scen = leader_crash(n=4, horizon=9000.0)
        report = scen.run(BoundedOmega, seed=0).stabilization(margin=scen.margin)
        assert report.holds and report.leader != 0


class TestChaoticTimers:
    @pytest.mark.parametrize("algorithm", [WriteEfficientOmega, MultiWriterOmega], ids=lambda a: a.display_name)
    def test_survives_chaos_era(self, algorithm):
        scen = chaotic_timers(n=4)
        result = scen.run(algorithm, seed=2)
        report = result.stabilization(margin=scen.margin)
        assert report.holds and report.leader_correct

    def test_chaos_causes_false_suspicions(self):
        scen = chaotic_timers(n=4)
        result = scen.run(WriteEfficientOmega, seed=2)
        total_suspicions = sum(
            result.memory.register(f"SUSPICIONS[{j}][{k}]").peek()
            for j in range(4)
            for k in range(4)
        )
        assert total_suspicions > 0


class TestHeavyFaults:
    @pytest.mark.parametrize("algorithm", FAST_ALGORITHMS, ids=lambda a: a.display_name)
    def test_cascade(self, algorithm):
        scen = cascade(n=6)
        report = scen.run(algorithm, seed=3).stabilization(margin=scen.margin)
        assert report.holds
        assert report.leader in range(3, 6)  # pids 0..2 crashed

    @pytest.mark.parametrize("algorithm", FAST_ALGORITHMS, ids=lambda a: a.display_name)
    def test_all_but_one(self, algorithm):
        scen = all_but_one(n=5, survivor=2)
        report = scen.run(algorithm, seed=4).stabilization(margin=scen.margin)
        assert report.holds
        assert report.leader == 2


class TestAwbOnly:
    """The paper's exact assumption: one timely process, the rest
    arbitrarily asynchronous."""

    @pytest.mark.parametrize("algorithm", [WriteEfficientOmega, MultiWriterOmega], ids=lambda a: a.display_name)
    def test_stabilizes_with_single_timely_process(self, algorithm):
        scen = awb_only(n=4, timely_pid=0)
        report = scen.run(algorithm, seed=5).stabilization(margin=scen.margin)
        assert report.holds and report.leader_correct


class TestScrambledInitialValues:
    @pytest.mark.parametrize("algorithm", FAST_ALGORITHMS, ids=lambda a: a.display_name)
    def test_converges(self, algorithm):
        scen = scrambled(n=4)
        report = scen.run(algorithm, seed=6).stabilization(margin=scen.margin)
        assert report.holds and report.leader_correct


class TestNegativeScenario:
    def test_capped_timers_prevent_stabilization(self):
        """With AWB2 violated, false suspicions never stop: suspicion
        counters keep growing to the very end of the run."""
        scen = capped_timers(n=4)
        result = scen.run(WriteEfficientOmega, seed=7)
        horizon = result.horizon
        late_suspicion_writes = [
            rec
            for rec in result.memory.writes_in(horizon * 0.8, horizon)
            if rec.register.startswith("SUSPICIONS")
        ]
        assert late_suspicion_writes, "capped timers should keep producing suspicions"

    def test_validity_holds_even_without_stabilization(self):
        scen = capped_timers(n=4)
        result = scen.run(WriteEfficientOmega, seed=7)
        assert check_validity(result.trace, result.n)

    def test_positive_twin_with_awb_timers_stabilizes(self):
        """Identical asynchrony profile, only the timers differ: with
        AWB2 restored the election converges -- the assumption, not the
        environment, is what the negative test exercised."""
        from repro.workloads.scenarios import slow_leader_awb

        scen = slow_leader_awb(n=4)
        report = scen.run(WriteEfficientOmega, seed=7).stabilization(margin=scen.margin)
        assert report.holds and report.leader_correct


class TestDeterminismAcrossMatrix:
    @pytest.mark.parametrize("algorithm", [WriteEfficientOmega, BoundedOmega], ids=lambda a: a.display_name)
    def test_same_seed_reproduces_stabilization(self, algorithm):
        scen = nominal(n=3, horizon=2500.0)
        a = scen.run(algorithm, seed=9).stabilization(margin=scen.margin)
        b = scen.run(algorithm, seed=9).stabilization(margin=scen.margin)
        assert (a.holds, a.leader, a.settle_time) == (b.holds, b.leader, b.settle_time)
