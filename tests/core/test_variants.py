"""Section 3.5 variants: nWnR suspicion vector and the timer-free loop."""

from __future__ import annotations

import pytest

from repro.analysis.write_stats import forever_writers, growing_registers
from repro.core.runner import Run
from repro.core.variants import MultiWriterOmega, StepCounterOmega
from repro.sim.crash import CrashPlan

HORIZON = 2500.0
MARGIN = 250.0


class TestMultiWriterOmega:
    @pytest.fixture(scope="class")
    def result(self):
        return Run(MultiWriterOmega, n=4, seed=60, horizon=HORIZON).execute()

    def test_stabilizes(self, result):
        report = result.stabilization(margin=MARGIN)
        assert report.holds and report.leader_correct

    def test_uses_vector_not_matrix(self, result):
        names = result.memory.names()
        assert "SUSPICIONS[0]" in names
        assert not any(name.startswith("SUSPICIONS[0][") for name in names)

    def test_leader_query_reads_fewer_registers(self, result):
        """The nWnR variant reads |candidates| suspicion registers per
        invocation instead of (n-1) * |candidates|."""
        bound = result.n  # one read per candidate
        for alg in result.algorithms:
            assert alg.max_leader_ops <= bound

    def test_reelects_after_leader_crash(self):
        plan = CrashPlan.single(4, 0, HORIZON * 0.4)
        result = Run(
            MultiWriterOmega, n=4, seed=61, horizon=HORIZON * 1.6, crash_plan=plan
        ).execute()
        report = result.stabilization(margin=MARGIN)
        assert report.holds and report.leader != 0

    def test_racy_increment_mode_still_stabilizes(self):
        """Plain read-then-write increments may lose updates; the
        election must still converge (lost increments only slow
        suspicion growth)."""
        result = Run(
            MultiWriterOmega,
            n=4,
            seed=62,
            horizon=HORIZON,
            algo_config={"atomic_increment": False},
        ).execute()
        report = result.stabilization(margin=MARGIN)
        assert report.holds and report.leader_correct

    def test_still_write_efficient(self, result):
        writers = forever_writers(result.memory, result.horizon, window=200.0)
        assert len(writers) == 1


class TestStepCounterOmega:
    @pytest.fixture(scope="class")
    def result(self):
        return Run(StepCounterOmega, n=4, seed=63, horizon=HORIZON).execute()

    def test_stabilizes_without_timers(self, result):
        report = result.stabilization(margin=MARGIN)
        assert report.holds and report.leader_correct

    def test_no_timer_events_fired(self, result):
        assert "timer" not in result.sim.fired_by_kind

    def test_no_timer_history(self, result):
        assert all(result.timer_service.behavior(pid).history == [] for pid in range(result.n))

    def test_single_growing_register(self, result):
        leader = result.stabilization(margin=MARGIN).leader
        assert growing_registers(result.memory, result.horizon) == frozenset(
            {f"PROGRESS[{leader}]"}
        )

    def test_reelects_after_leader_crash(self):
        plan = CrashPlan.single(4, 0, HORIZON * 0.4)
        result = Run(
            StepCounterOmega, n=4, seed=64, horizon=HORIZON * 1.6, crash_plan=plan
        ).execute()
        report = result.stabilization(margin=MARGIN)
        assert report.holds and report.leader != 0
