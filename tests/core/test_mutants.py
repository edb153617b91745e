"""Lower-bound falsification: Lemmas 5 and 6 exhibited on mutants.

These tests *depend on failure*: a mutant that keeps satisfying
Eventual Leadership would refute the paper's lower bound (or, far more
likely, expose a harness bug).
"""

from __future__ import annotations

import pytest

from repro.core.algorithm1 import WriteEfficientOmega
from repro.core.mutants import BlindProcessOmega, MutedLeaderOmega
from repro.core.runner import Run
from repro.sim.crash import CrashPlan

HORIZON = 3000.0


class TestLemma5LeaderMustWriteForever:
    """A leader that stops writing is indistinguishable from a crashed
    one, so it must lose the leadership at some follower."""

    @pytest.fixture(scope="class")
    def muted_result(self):
        return Run(
            MutedLeaderOmega,
            n=4,
            seed=80,
            horizon=HORIZON,
            algo_config={"muted_pid": 0, "mute_after": 800.0},
        ).execute()

    @pytest.fixture(scope="class")
    def control_result(self):
        """Same seed, unmutated algorithm: pid 0 stays leader."""
        return Run(WriteEfficientOmega, n=4, seed=80, horizon=HORIZON).execute()

    def test_control_keeps_pid0_leading(self, control_result):
        report = control_result.stabilization(margin=200.0)
        assert report.holds and report.leader == 0

    def test_muted_leader_is_demoted_at_followers(self, muted_result):
        """After the mute point, followers stop outputting 0."""
        final = {
            pid: leader
            for _, pid, leader in muted_result.trace.leader_samples()
        }
        followers = [pid for pid in range(4) if pid != 0]
        assert all(final[pid] != 0 for pid in followers)

    def test_muted_leader_stops_writing(self, muted_result):
        late_writes = [
            rec for rec in muted_result.memory.writes_in(1000.0, HORIZON) if rec.pid == 0
        ]
        assert late_writes == []

    def test_followers_eventually_agree_on_someone_else(self, muted_result):
        """The *other* processes re-stabilize among themselves; the
        muted process may disagree (it still thinks it leads), which is
        precisely the specification violation."""
        finals = {pid: leader for _, pid, leader in muted_result.trace.leader_samples()}
        follower_finals = {finals[pid] for pid in range(4) if pid != 0}
        assert len(follower_finals) == 1
        assert follower_finals.pop() in {1, 2, 3}


class TestLemma6EveryoneMustReadForever:
    """A process that stops reading cannot detect the leader's crash and
    keeps outputting a dead process -- violating Eventual Leadership."""

    @pytest.fixture(scope="class")
    def blind_result(self):
        # Let pid 0 lead, blind pid 1 at t=600, crash pid 0 at t=900.
        return Run(
            BlindProcessOmega,
            n=4,
            seed=81,
            horizon=HORIZON,
            algo_config={"blind_pid": 1, "blind_after": 600.0},
            crash_plan=CrashPlan.single(4, 0, 900.0),
        ).execute()

    def test_blind_process_stops_reading(self, blind_result):
        late_reads = [rec for rec in blind_result.memory.reads_in(1000.0, HORIZON) if rec.pid == 1]
        assert late_reads == []

    def test_blind_process_stuck_on_dead_leader(self, blind_result):
        finals = {pid: leader for _, pid, leader in blind_result.trace.leader_samples()}
        assert finals[1] == 0  # still believes the crashed process leads

    def test_sighted_processes_move_on(self, blind_result):
        finals = {pid: leader for _, pid, leader in blind_result.trace.leader_samples()}
        for pid in (2, 3):
            assert finals[pid] != 0

    def test_eventual_leadership_violated(self, blind_result):
        report = blind_result.stabilization(margin=200.0)
        assert not report.holds
