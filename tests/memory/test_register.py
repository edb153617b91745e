"""Atomic 1WnR registers: ownership, counting, observer access."""

from __future__ import annotations

import pytest

from repro.memory.register import AtomicRegister, OwnershipError


class TestRegisterOperations:
    def test_initial_value_readable(self):
        reg = AtomicRegister("R", owner=0, initial=42)
        assert reg.read(reader=1) == 42

    def test_write_then_read(self):
        reg = AtomicRegister("R", owner=0)
        reg.write(0, 7)
        assert reg.read(1) == 7

    def test_last_write_wins(self):
        reg = AtomicRegister("R", owner=0)
        for v in (1, 2, 3):
            reg.write(0, v)
        assert reg.read(1) == 3

    def test_owner_enforced(self):
        reg = AtomicRegister("R", owner=0)
        with pytest.raises(OwnershipError):
            reg.write(1, 5)

    def test_ownership_error_names_register(self):
        reg = AtomicRegister("PROGRESS[3]", owner=3)
        with pytest.raises(OwnershipError, match="PROGRESS"):
            reg.write(0, 1)

    def test_unowned_register_writable_by_anyone(self):
        reg = AtomicRegister("R", owner=None)
        reg.write(0, 1)
        reg.write(5, 2)
        assert reg.read(0) == 2

    def test_anyone_may_read(self):
        reg = AtomicRegister("R", owner=0, initial="x")
        for pid in range(5):
            assert reg.read(pid) == "x"


class TestCountingAndObservers:
    def test_counts(self):
        reg = AtomicRegister("R", owner=0)
        reg.write(0, 1)
        reg.write(0, 2)
        reg.read(1)
        assert reg.peek() == 2
        assert reg.read_count == 1

    def test_peek_not_counted(self):
        reg = AtomicRegister("R", owner=0, initial=9)
        assert reg.peek() == 9
        assert reg.read_count == 0

    def test_poke_not_counted_and_ignores_owner(self):
        reg = AtomicRegister("R", owner=0)
        reg.poke(99)
        assert reg.peek() == 99
        assert reg.read_count == 0

    def test_critical_flag(self):
        assert AtomicRegister("R", owner=0, critical=True).critical
        assert not AtomicRegister("R", owner=0).critical
