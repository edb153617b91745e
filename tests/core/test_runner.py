"""The run assembly: determinism, crash semantics, task multiplexing."""

from __future__ import annotations

import pytest

from repro.analysis.omega_props import check_termination
from repro.analysis.timeline import build_timeline
from repro.core.runner import Run
from repro.core.algorithm1 import WriteEfficientOmega
from repro.memory.disk import Disk, LatencyModel
from repro.memory.linearizability import check_atomic_history
from repro.sim.crash import CrashPlan
from repro.sim.rng import RngRegistry
from repro.workloads.scenarios import scramble_registers


class TestRunBasics:
    def test_requires_two_processes(self):
        with pytest.raises(ValueError):
            Run(WriteEfficientOmega, n=1)

    def test_same_seed_same_trace(self):
        a = Run(WriteEfficientOmega, n=3, seed=11, horizon=300.0).execute()
        b = Run(WriteEfficientOmega, n=3, seed=11, horizon=300.0).execute()
        assert a.trace.leader_samples() == b.trace.leader_samples()
        assert a.memory.total_writes == b.memory.total_writes
        assert [r.time for r in a.memory.write_log] == [r.time for r in b.memory.write_log]

    def test_different_seed_different_schedule(self):
        a = Run(WriteEfficientOmega, n=3, seed=1, horizon=300.0).execute()
        b = Run(WriteEfficientOmega, n=3, seed=2, horizon=300.0).execute()
        assert [r.time for r in a.memory.write_log] != [r.time for r in b.memory.write_log]

    def test_timer_activity_traced(self):
        run = Run(WriteEfficientOmega, n=3, seed=3, horizon=300.0)
        result = run.execute()
        # Each behaviour's (tau, x, duration) history is the timer record.
        for runtime in run.runtimes:
            history = result.timer_service.behavior(runtime.pid).history
            assert history
            assert all(duration > 0 for _, _, duration in history)
            # every expiration was armed first
            assert len(history) >= runtime.timer_expirations
        assert sum(rt.timer_expirations for rt in run.runtimes) > 0

    def test_result_carries_config(self):
        result = Run(WriteEfficientOmega, n=3, seed=5, horizon=100.0).execute()
        assert result.n == 3
        assert result.seed == 5
        assert result.horizon == 100.0
        assert result.algorithm_name == "alg1-write-efficient"

    def test_final_sample_at_horizon(self):
        result = Run(WriteEfficientOmega, n=3, seed=5, horizon=100.0).execute()
        times = [t for t, _, _ in result.trace.leader_samples()]
        assert max(times) == 100.0

    def test_final_leaders_only_correct_pids(self):
        plan = CrashPlan.single(3, 2, 50.0)
        result = Run(WriteEfficientOmega, n=3, seed=5, horizon=200.0, crash_plan=plan).execute()
        assert set(result.final_leaders()) == {0, 1}

    def test_final_leaders_take_last_sample_per_pid(self):
        result = Run(WriteEfficientOmega, n=3, seed=5, horizon=200.0).execute()
        expected = {}
        for t, pid, leader in result.trace.leader_samples():
            if pid not in expected or t >= expected[pid][0]:
                expected[pid] = (t, leader)
        assert result.final_leaders() == {pid: lv for pid, (_, lv) in expected.items()}

    def test_trace_events_flag_plumbs_to_simulator(self):
        fast = Run(WriteEfficientOmega, n=3, seed=5, horizon=100.0, trace_events=False)
        result = fast.execute()
        assert result.sim.trace_events is False
        assert result.sim.fired_by_kind == {}
        default = Run(WriteEfficientOmega, n=3, seed=5, horizon=100.0).execute()
        assert default.sim.fired_by_kind  # per-kind counts kept by default
        # The flag is pure observability: the schedule is unchanged.
        assert result.sim.events_fired == default.sim.events_fired

    def test_summarize_in_place(self):
        result = Run(WriteEfficientOmega, n=3, seed=5, horizon=400.0).execute()
        row = result.summarize(scenario_name="adhoc", window=50.0)
        assert row.scenario == "adhoc"
        assert row.seed == 5 and row.n == 3
        assert row.total_writes == result.memory.total_writes
        assert row.events_fired == result.sim.events_fired


class TestCrashSemantics:
    def test_crashed_process_takes_no_steps_after_crash(self):
        plan = CrashPlan.single(3, 0, 100.0)
        result = Run(WriteEfficientOmega, n=3, seed=7, horizon=400.0, crash_plan=plan).execute()
        writes_after = [r for r in result.memory.writes_in(100.0, 400.0) if r.pid == 0]
        assert writes_after == []

    def test_crashed_process_not_sampled(self):
        plan = CrashPlan.single(3, 1, 50.0)
        result = Run(WriteEfficientOmega, n=3, seed=7, horizon=200.0, crash_plan=plan).execute()
        late_samples = [
            (t, pid) for t, pid, _ in result.trace.leader_samples() if t > 60.0 and pid == 1
        ]
        assert late_samples == []

    def test_crash_planned_beyond_the_horizon_never_happens(self):
        plan = CrashPlan.single(3, 2, 10_000.0)
        result = Run(WriteEfficientOmega, n=3, seed=5, horizon=300.0, crash_plan=plan).execute()
        # The run's plan holds only the crashes that happened ...
        assert result.crash_plan.is_correct(2)
        # ... so every verdict counts pid 2 as correct: the timeline
        # weighs its opinions (at seed 5 it alone disagrees at t=40, 45).
        assert check_termination(result.algorithms, result.crash_plan).ok
        timeline = build_timeline(result.trace, result.crash_plan)
        assert timeline == build_timeline(result.trace)
        assert 45.0 in timeline.anarchy_times
        assert set(result.final_leaders()) == {0, 1, 2}

    def test_runtime_flags(self):
        plan = CrashPlan.single(3, 1, 50.0)
        run = Run(WriteEfficientOmega, n=3, seed=7, horizon=200.0, crash_plan=plan)
        run.execute()
        assert run.runtimes[1].crashed
        assert not run.runtimes[0].crashed


class TestScramble:
    def test_scrambled_registers_differ_from_defaults(self):
        run = Run(
            WriteEfficientOmega, n=4, seed=9, horizon=10.0, scramble=scramble_registers
        )
        values = [reg.peek() for reg in run.memory.all_registers()]
        # Default SUSPICIONS/PROGRESS are all zero; scrambling must have
        # touched some of them.
        assert any(v not in (0, True) for v in values)

    def test_scramble_deterministic_per_seed(self):
        r1 = Run(WriteEfficientOmega, n=4, seed=9, horizon=10.0, scramble=scramble_registers)
        r2 = Run(WriteEfficientOmega, n=4, seed=9, horizon=10.0, scramble=scramble_registers)
        assert [reg.peek() for reg in r1.memory.all_registers()] == [
            reg.peek() for reg in r2.memory.all_registers()
        ]


class TestSnapshots:
    def test_snapshot_interval_records(self):
        result = Run(
            WriteEfficientOmega, n=3, seed=3, horizon=100.0, snapshot_interval=10.0
        ).execute()
        times = [t for t, _ in result.snapshots]
        assert len(times) == 11  # t = 0, 10, ..., 100
        assert times[0] == 0.0


class TestDiskIntegration:
    def test_disk_run_produces_linearizable_history(self):
        rng = RngRegistry(21)
        disk = Disk(LatencyModel(rng, lo=0.5, hi=2.0))
        result = Run(
            WriteEfficientOmega, n=3, seed=21, horizon=400.0, disk=disk, sample_interval=20.0
        ).execute()
        assert len(disk.history) > 100
        report = check_atomic_history(disk.history)
        assert report.ok, report.summary()

    def test_disk_slows_progress(self):
        base = Run(WriteEfficientOmega, n=3, seed=4, horizon=200.0).execute()
        rng = RngRegistry(4)
        disk = Disk(LatencyModel(rng, lo=2.0, hi=5.0))
        slowed = Run(WriteEfficientOmega, n=3, seed=4, horizon=200.0, disk=disk).execute()
        assert slowed.memory.total_writes < base.memory.total_writes
