"""Suspicion-dynamics extraction."""

from __future__ import annotations

import pytest

from repro.analysis.suspicion import cumulative_suspicions, suspicion_writes
from repro.core.algorithm1 import WriteEfficientOmega
from repro.workloads.scenarios import capped_timers, slow_leader_awb
from repro.memory.memory import SharedMemory


def memory_with_suspicions(times):
    clock = {"t": 0.0}
    memory = SharedMemory(clock=lambda: clock["t"])
    reg = memory.create_register("SUSPICIONS[0][1]", owner=0)
    other = memory.create_register("PROGRESS[0]", owner=0)
    for t in times:
        clock["t"] = t
        reg.write(0, t)
    clock["t"] = 999.0
    other.write(0, 1)  # non-suspicion writes must be ignored
    return memory


class TestExtraction:
    def test_suspicion_writes_filtered(self):
        memory = memory_with_suspicions([1.0, 2.0])
        assert [(t, pid) for t, pid, _ in suspicion_writes(memory)] == [(1.0, 0), (2.0, 0)]

    def test_cumulative_series(self):
        memory = memory_with_suspicions([10.0, 20.0, 30.0])
        xs, ys = cumulative_suspicions(memory, horizon=100.0, bucket=25.0)
        assert xs == [0.0, 25.0, 50.0, 75.0, 100.0]
        assert ys == [0.0, 2.0, 3.0, 3.0, 3.0]

    def test_bucket_validation(self):
        memory = memory_with_suspicions([])
        with pytest.raises(ValueError):
            cumulative_suspicions(memory, horizon=10.0, bucket=0.0)


class TestLemma2Signature:
    """The quiescence dichotomy on real runs: AWB quiet, capped noisy."""

    @staticmethod
    def last_suspicion(result):
        return max((t for t, _, _ in suspicion_writes(result.memory)), default=None)

    def test_awb_run_quiesces(self):
        scen = slow_leader_awb(n=4)
        result = scen.run(WriteEfficientOmega, seed=7)
        last = self.last_suspicion(result)
        assert last is None or last < result.horizon * 0.98

    def test_capped_run_never_quiesces(self):
        scen = capped_timers(n=4)
        result = scen.run(WriteEfficientOmega, seed=7)
        assert self.last_suspicion(result) >= result.horizon * 0.8
