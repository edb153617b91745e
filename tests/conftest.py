"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.memory.memory import SharedMemory
from repro.sim.rng import RngRegistry


@pytest.fixture
def rng() -> RngRegistry:
    """A deterministic RNG registry for tests."""
    return RngRegistry(seed=1234)


def make_rng(seed: int = 1234) -> RngRegistry:
    """Non-fixture helper for hypothesis tests (fixtures don't mix well
    with ``@given``)."""
    return RngRegistry(seed=seed)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def memory_with(writes, reads=()):
    """Build a SharedMemory from (time, pid, reg, value) and (time, pid,
    reg) records."""
    clock = FakeClock()
    memory = SharedMemory(clock=clock)
    regs = {}
    events = [(t, "w", pid, reg, value) for t, pid, reg, value in writes]
    events += [(t, "r", pid, reg, None) for t, pid, reg in reads]
    events.sort(key=lambda e: e[0])
    for t, kind, pid, reg, value in events:
        if reg not in regs:
            regs[reg] = memory.create_register(reg, owner=None, initial=0)
        clock.now = t
        if kind == "w":
            regs[reg].write(pid, value)
        else:
            regs[reg].read(pid)
    return memory

