"""Multi-writer registers and fetch&add (Section 3.5 variant substrate)."""

from __future__ import annotations

from repro.memory.memory import SharedMemory
from repro.memory.mwmr import MultiWriterRegister


class TestMultiWriterRegister:
    def test_any_writer(self):
        reg = MultiWriterRegister("M")
        reg.write(0, 1)
        reg.write(7, 2)
        assert reg.read(3) == 2

    def test_fetch_add_returns_old(self):
        reg = MultiWriterRegister("M", initial=10)
        assert reg.fetch_add(0) == 10
        assert reg.peek() == 11

    def test_fetch_add_amount(self):
        reg = MultiWriterRegister("M", initial=0)
        reg.fetch_add(0, amount=5)
        assert reg.peek() == 5

    def test_fetch_add_is_atomic_increment_sequence(self):
        reg = MultiWriterRegister("M", initial=0)
        for pid in range(10):
            reg.fetch_add(pid)
        assert reg.peek() == 10

    def test_peek_poke(self):
        reg = MultiWriterRegister("M", initial=0)
        reg.poke(42)
        assert reg.peek() == 42


class TestAccountingIntegration:
    def _memory(self):
        clock = {"t": 0.0}
        return SharedMemory(clock=lambda: clock["t"]), clock

    def test_write_counted(self):
        memory, _ = self._memory()
        reg = memory.create_mwmr("M")
        reg.write(3, 1)
        assert [(rec.pid, rec.register, rec.value) for rec in memory.write_log] == [(3, "M", 1)]

    def test_fetch_add_counts_read_and_write(self):
        memory, _ = self._memory()
        reg = memory.create_mwmr("M")
        reg.fetch_add(2)
        assert [(rec.pid, rec.value) for rec in memory.write_log] == [(2, 1)]
        assert [(rec.pid, rec.register) for rec in memory.read_log] == [(2, "M")]
        assert memory.total_reads == reg.read_count == 1

    def test_snapshot_includes_mwmr(self):
        memory, _ = self._memory()
        memory.create_mwmr("M", initial=7)
        assert ("M", 7) in memory.snapshot()
