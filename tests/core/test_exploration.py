"""The open-question exploration: lazy (non-reading) leaders.

Two halves: the heuristic delivers zero leader reads under stable
conditions, and it breaks Eventual Leadership under post-stabilization
disturbance -- evidence the open question does not fall to the naive
approach.
"""

from __future__ import annotations

import pytest

from repro.core.algorithm1 import WriteEfficientOmega
from repro.core.exploration import LazyLeaderOmega
from repro.core.runner import Run
from repro.sim.rng import RngRegistry
from repro.sim.schedulers import AdversarialStallDelay, StallWindow, UniformDelay

HORIZON = 3000.0


def stall_model(seed: int, pid: int = 0, start: float = 1200.0, end: float = 2000.0):
    """Uniform asynchrony plus one long stall of ``pid`` -- legal
    asynchronous behaviour that demotes a stable leader."""
    rng = RngRegistry(seed)
    return AdversarialStallDelay(UniformDelay(rng, 0.5, 1.5), [StallWindow(pid, start, end)])


class TestStableConditions:
    @pytest.fixture(scope="class")
    def result(self):
        return Run(LazyLeaderOmega, n=4, seed=140, horizon=HORIZON).execute()

    def test_still_elects_correct_leader(self, result):
        report = result.stabilization(margin=200.0)
        assert report.holds and report.leader_correct

    def test_leader_goes_lazy(self, result):
        leader = result.stabilization(margin=200.0).leader
        assert result.algorithms[leader].lazy

    def test_lazy_leader_stops_reading(self, result):
        """The prize the open question asks about: zero leader reads in
        the tail of the run."""
        leader = result.stabilization(margin=200.0).leader
        tail_reads = [
            rec
            for rec in result.memory.reads_in(HORIZON * 0.7, HORIZON)
            if rec.pid == leader
        ]
        assert tail_reads == []

    def test_followers_keep_reading(self, result):
        leader = result.stabilization(margin=200.0).leader
        readers = result.memory.readers_in(HORIZON * 0.7, HORIZON)
        assert readers == frozenset(range(4)) - {leader}

    def test_lazy_leader_keeps_writing(self, result):
        """Lemma 5 is respected: laziness elides reads, never writes."""
        leader = result.stabilization(margin=200.0).leader
        tail_writes = [
            rec for rec in result.memory.writes_in(HORIZON * 0.7, HORIZON) if rec.pid == leader
        ]
        assert tail_writes


class TestDisturbedConditions:
    """The failure mode that keeps the question open."""

    @pytest.fixture(scope="class")
    def lazy_result(self):
        return Run(
            LazyLeaderOmega, n=4, seed=141, horizon=HORIZON, delay_model=stall_model(141)
        ).execute()

    @pytest.fixture(scope="class")
    def plain_result(self):
        return Run(
            WriteEfficientOmega, n=4, seed=141, horizon=HORIZON, delay_model=stall_model(141)
        ).execute()

    def test_plain_algorithm_recovers_from_the_stall(self, plain_result):
        report = plain_result.stabilization(margin=200.0)
        assert report.holds and report.leader_correct

    def test_lazy_leader_never_notices_demotion(self, lazy_result):
        """Followers suspect the stalled leader and elect someone else;
        the lazy ex-leader still answers itself."""
        finals = {pid: leader for _, pid, leader in lazy_result.trace.leader_samples()}
        assert finals[0] == 0  # stuck on itself
        others = {finals[pid] for pid in (1, 2, 3)}
        assert 0 not in others

    def test_eventual_leadership_violated(self, lazy_result):
        assert not lazy_result.stabilization(margin=200.0).holds

    def test_violation_is_permanent(self, lazy_result):
        """The lazy process reads nothing after going lazy, so no
        future information can fix its answer."""
        lazy_alg = lazy_result.algorithms[0]
        assert lazy_alg.lazy
        last_read = max(rec.time for rec in lazy_result.memory.read_log if rec.pid == 0)
        assert last_read < HORIZON * 0.6
