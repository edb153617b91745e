"""Crash plans: validation, queries, builders."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.crash import CrashPlan
from tests.conftest import make_rng


class TestCrashPlanBasics:
    def test_none_plan_everyone_correct(self):
        plan = CrashPlan.none(4)
        assert plan.correct == frozenset(range(4))
        assert not plan.crash_times

    def test_single(self):
        plan = CrashPlan.single(4, 2, 10.0)
        assert plan.crash_time(2) == 10.0
        assert plan.is_correct(0)
        assert not plan.is_correct(2)

    def test_is_crashed_boundary(self):
        plan = CrashPlan.single(3, 1, 10.0)
        # A run ending at t has crashed exactly the pids due at or before t.
        assert plan.until(9.999).is_correct(1)
        assert not plan.until(10.0).is_correct(1)

    def test_correct_process_never_crashes(self):
        plan = CrashPlan.single(3, 1, 10.0)
        assert plan.crash_time(0) == math.inf
        assert plan.until(1e12).is_correct(0)

    def test_alive_at(self):
        plan = CrashPlan(4, {0: 5.0, 1: 15.0})
        assert plan.until(0.0).correct == frozenset({0, 1, 2, 3})
        assert plan.until(10.0).correct == frozenset({1, 2, 3})
        assert plan.until(20.0).correct == frozenset({2, 3})

    def test_inf_times_normalized_away(self):
        plan = CrashPlan(3, {0: math.inf})
        assert plan.is_correct(0)

    def test_all_crashing_rejected(self):
        with pytest.raises(ValueError):
            CrashPlan(2, {0: 1.0, 1: 2.0})

    def test_out_of_range_pid_rejected(self):
        with pytest.raises(ValueError):
            CrashPlan(2, {5: 1.0})

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            CrashPlan(2, {0: -1.0})


class TestBuilders:
    def test_all_but(self):
        plan = CrashPlan.all_but(4, survivor=2, at=10.0, spacing=5.0)
        assert plan.correct == frozenset({2})
        assert plan.crash_time(0) == 10.0
        assert plan.crash_time(1) == 15.0
        assert plan.crash_time(3) == 20.0

    def test_cascade(self):
        plan = CrashPlan.cascade(5, [3, 1], start=100.0, spacing=50.0)
        assert plan.crash_time(3) == 100.0
        assert plan.crash_time(1) == 150.0
        assert plan.correct == frozenset({0, 2, 4})

    def test_random_respects_cap(self):
        for seed in range(10):
            plan = CrashPlan.random(5, make_rng(seed), max_failures=2, probability=0.9)
            assert len(plan.crash_times) <= 2

    def test_random_always_leaves_a_survivor(self):
        for seed in range(20):
            plan = CrashPlan.random(3, make_rng(seed), probability=1.0)
            assert len(plan.correct) >= 1

    def test_random_deterministic(self):
        a = CrashPlan.random(6, make_rng(3), probability=0.5)
        b = CrashPlan.random(6, make_rng(3), probability=0.5)
        assert a.crash_times == b.crash_times


class TestLeaderStorms:
    def test_bursts_and_gaps(self):
        plan = CrashPlan.leader_storms(
            6, crashes=4, start=100.0, gap=50.0, burst=2, spacing=1.0
        )
        # Two storms of two: pids 0,1 at 100/101; pids 2,3 at 150/151.
        assert plan.crash_times == {0: 100.0, 1: 101.0, 2: 150.0, 3: 151.0}
        assert plan.correct == frozenset({4, 5})

    def test_targets_are_the_lexmin_prefix(self):
        plan = CrashPlan.leader_storms(5, crashes=3, start=10.0, gap=5.0)
        assert set(plan.crash_times) == {0, 1, 2}

    def test_validation(self):
        with pytest.raises(ValueError):
            CrashPlan.leader_storms(4, crashes=4, start=1.0, gap=1.0)
        with pytest.raises(ValueError):
            CrashPlan.leader_storms(4, crashes=1, start=1.0, gap=0.0)


class TestCrashPlanProperty:
    @given(st.integers(2, 10), st.data())
    def test_correct_and_faulty_partition(self, n, data):
        crash_count = data.draw(st.integers(0, n - 1))
        pids = data.draw(
            st.lists(st.integers(0, n - 1), min_size=crash_count, max_size=crash_count, unique=True)
        )
        times = {pid: float(i + 1) for i, pid in enumerate(pids)}
        plan = CrashPlan(n, times)
        assert plan.correct | set(plan.crash_times) == frozenset(range(n))
        assert not plan.correct & set(plan.crash_times)
