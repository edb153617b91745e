"""The SAN disk model: latency sampling and stamp bookkeeping."""

from __future__ import annotations

import pytest

from repro.memory.disk import Disk, LatencyModel
from repro.memory.linearizability import INITIAL_TS
from repro.memory.memory import SharedMemory
from repro.sim.kernel import Simulator
from tests.conftest import make_rng


class TestLatencyModel:
    def test_sample_within_bounds(self):
        model = LatencyModel(make_rng(1), lo=1.0, hi=4.0)
        for pid in range(4):
            for _ in range(100):
                s = model.sample(pid)
                assert 1.0 <= s.resp_offset <= 4.0
                assert 0.0 <= s.lin_offset <= s.resp_offset

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            LatencyModel(make_rng(1), lo=0.0, hi=1.0)
        with pytest.raises(ValueError):
            LatencyModel(make_rng(1), lo=3.0, hi=1.0)

    def test_deterministic(self):
        a = LatencyModel(make_rng(5)).sample(0)
        b = LatencyModel(make_rng(5)).sample(0)
        assert a == b


class TestDiskHistory:
    """Each access runs to its response before the next one starts."""

    @pytest.fixture
    def rig(self):
        sim = Simulator()
        memory = SharedMemory(clock=lambda: sim.now)
        disk = Disk(LatencyModel(make_rng(2)))
        disk.attach(sim)
        regs = {name: memory.create_register(name, owner=0) for name in "RQ"}
        regs["P"] = memory.create_register("P", owner=1)
        returned = []

        def access(kind, pid, name, value=None):
            if kind == "write":
                disk.emu_write(pid, regs[name], value, returned.append)
            else:
                disk.emu_read(pid, regs[name], returned.append)
            sim.run(until=sim.now + 10.0)
            return returned[-1]

        return disk, access

    def test_write_versions_increment_per_register(self, rig):
        disk, access = rig
        access("write", 0, "R", 10)
        access("write", 0, "R", 11)
        access("write", 0, "Q", 12)
        access("write", 1, "P", 13)
        assert [(op.register, op.ts, op.value) for op in disk.history] == [
            ("R", (1, 0), 10), ("R", (2, 0), 11), ("Q", (1, 0), 12), ("P", (1, 1), 13),
        ]

    def test_read_returns_latest_version(self, rig):
        disk, access = rig
        access("write", 0, "R", "a")
        assert access("read", 1, "R") == "a"
        access("write", 0, "R", "b")
        assert access("read", 2, "R") == "b"
        reads = [(op.pid, op.ts, op.value) for op in disk.history if op.kind == "read"]
        assert reads == [(1, (1, 0), "a"), (2, (2, 0), "b")]

    def test_read_before_any_write_sees_initial_version(self, rig):
        disk, access = rig
        assert access("read", 1, "R") == 0
        (op,) = disk.history
        assert op.ts == INITIAL_TS == (0, -1)

    def test_op_ids_monotone(self, rig):
        disk, access = rig
        access("write", 0, "R", 1)
        access("read", 1, "R")
        ids = [op.op_id for op in disk.history]
        assert ids == sorted(ids)

    def test_access_spans_its_sampled_interval(self, rig):
        disk, access = rig
        access("write", 0, "R", 1)
        (op,) = disk.history
        assert 1.0 <= op.resp - op.inv <= 5.0

    def test_unattached_disk_refuses_accesses(self):
        memory = SharedMemory(clock=lambda: 0.0)
        reg = memory.create_register("R", owner=0)
        with pytest.raises(RuntimeError, match="not attached"):
            Disk(LatencyModel(make_rng(2))).emu_read(0, reg, lambda _: None)
