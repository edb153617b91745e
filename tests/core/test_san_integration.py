"""SAN (disk-backed) integration across the stack.

The disk substrate must compose with every layer: both Omega
algorithms, the consensus application, and the linearizability checker.
"""

from __future__ import annotations

import pytest

from repro.apps.consensus import ConsensusProcess
from repro.core.algorithm1 import WriteEfficientOmega
from repro.core.algorithm2 import BoundedOmega
from repro.core.runner import Run
from repro.memory.disk import Disk, LatencyModel
from repro.memory.linearizability import check_atomic_history
from repro.sim.rng import RngRegistry
from repro.workloads.scenarios import san


def make_disk(seed, lo=0.5, hi=2.0):
    return Disk(LatencyModel(RngRegistry(seed), lo=lo, hi=hi))


class TestAlg1OverSan:
    def test_scenario_stabilizes(self):
        scen = san(n=3)
        result = scen.run(WriteEfficientOmega, seed=3)
        report = result.stabilization(margin=scen.margin)
        assert report.holds and report.leader_correct

    def test_history_linearizable(self):
        scen = san(n=3)
        result = scen.run(WriteEfficientOmega, seed=3)
        assert check_atomic_history(result.disk.history).ok


class TestAlg2OverSan:
    @pytest.fixture(scope="class")
    def result(self):
        disk = make_disk(44)
        # Disk latency stretches every step; run long enough for the
        # hand-shake to make real progress but don't demand full
        # stabilization (Algorithm 2 needs ~10x Algorithm 1's horizon).
        return Run(
            BoundedOmega,
            n=3,
            seed=44,
            horizon=4000.0,
            disk=disk,
            sample_interval=50.0,
            timer_behaviors=None,
        ).execute()

    def test_history_linearizable(self, result):
        report = check_atomic_history(result.disk.history)
        assert report.ok, report.summary()

    def test_handshake_operates_over_disk(self, result):
        """PROGRESS/LAST signals flow through the disk."""
        progress_writes = [
            rec for rec in result.memory.write_log if rec.register.startswith("PROGRESS[")
        ]
        last_writes = [rec for rec in result.memory.write_log if rec.register.startswith("LAST[")]
        assert progress_writes and last_writes

    def test_column_ownership_preserved_over_disk(self, result):
        for rec in result.memory.write_log:
            if rec.register.startswith("LAST["):
                _, col = (int(x) for x in rec.register[5:-1].split("]["))
                assert rec.pid == col


class TestConsensusOverSan:
    def test_consensus_decides_over_disk(self):
        disk = make_disk(45, lo=0.5, hi=1.5)
        result = Run(
            ConsensusProcess, n=3, seed=45, horizon=6000.0, disk=disk, sample_interval=50.0
        ).execute()
        decisions = {alg.pid: alg.decision for alg in result.algorithms}
        assert all(d is not None for d in decisions.values())
        assert len(set(decisions.values())) == 1

    def test_disk_history_linearizable(self):
        disk = make_disk(45, lo=0.5, hi=1.5)
        result = Run(
            ConsensusProcess, n=3, seed=45, horizon=6000.0, disk=disk, sample_interval=50.0
        ).execute()
        assert check_atomic_history(result.disk.history).ok


class TestBlockedProcessSemantics:
    def test_crash_during_disk_access_stops_resume(self):
        """A process that crashes mid-access takes no further step even
        though its in-flight operation may still linearize."""
        from repro.sim.crash import CrashPlan

        disk = make_disk(46, lo=5.0, hi=10.0)
        plan = CrashPlan.single(3, 0, 100.0)
        result = Run(
            WriteEfficientOmega, n=3, seed=46, horizon=400.0, disk=disk, crash_plan=plan,
            sample_interval=20.0,
        ).execute()
        # No operation by pid 0 after crash + max latency window.
        late = [rec for rec in result.memory.writes_in(115.0, 400.0) if rec.pid == 0]
        assert late == []
