"""The eventually-synchronous baseline: works under its (stronger)
assumption, pays the costs Algorithm 1 avoids."""

from __future__ import annotations

import pytest

from repro.analysis.write_stats import forever_writers, growing_registers
from repro.core.baseline import EventuallySynchronousOmega
from repro.core.runner import Run
from repro.sim.crash import CrashPlan
from repro.workloads.scenarios import ev_sync


class TestBaselineCorrectness:
    @pytest.fixture(scope="class")
    def result(self):
        return ev_sync(n=4, horizon=3000.0).run(EventuallySynchronousOmega, seed=70)

    def test_stabilizes_under_eventual_synchrony(self, result):
        report = result.stabilization(margin=100.0)
        assert report.holds and report.leader_correct

    def test_elects_smallest_correct_id(self, result):
        assert result.stabilization(margin=100.0).leader == 0

    def test_reelects_after_leader_crash(self):
        scen = ev_sync(n=4, horizon=5000.0)
        plan = CrashPlan.single(4, 0, 2500.0)
        result = scen.run(EventuallySynchronousOmega, seed=71, crash_plan=plan)
        report = result.stabilization(margin=100.0)
        assert report.holds and report.leader == 1


class TestBaselineCosts:
    """The two costs the paper's Algorithm 1 eliminates."""

    @pytest.fixture(scope="class")
    def result(self):
        return ev_sync(n=4, horizon=3000.0).run(EventuallySynchronousOmega, seed=70)

    def test_every_process_writes_forever(self, result):
        writers = forever_writers(result.memory, result.horizon, window=200.0)
        assert writers == frozenset(range(result.n))

    def test_every_heartbeat_register_unbounded(self, result):
        growing = growing_registers(result.memory, result.horizon)
        assert growing == frozenset(f"HB[{i}]" for i in range(result.n))


class TestBaselineAdaptiveTimeout:
    def test_patience_doubles_on_false_suspicion(self):
        result = ev_sync(n=3, horizon=2000.0).run(EventuallySynchronousOmega, seed=72)
        # At least one follower should have backed off beyond the
        # initial patience at some point (heavy-tailed pre-gst delays
        # force false suspicions).
        patiences = [max(alg.patience) for alg in result.algorithms]
        assert any(p > 2 for p in patiences)
