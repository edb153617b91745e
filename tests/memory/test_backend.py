"""The memory-backend layer: every backend is a ``SharedMemory``, and the factory."""

from __future__ import annotations

import pytest

from repro.memory.backend import BACKENDS, create_memory
from repro.memory.emulated import EmulatedMemory
from repro.memory.memory import SharedMemory
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry


def test_registry_names():
    assert set(BACKENDS) == {"shared", "emulated"}


def test_shared_memory_implements_protocol():
    mem = SharedMemory(clock=lambda: 0.0)
    assert isinstance(mem, SharedMemory)


def test_emulated_memory_implements_protocol(rng):
    sim = Simulator()
    mem = EmulatedMemory(clock=lambda: sim.now, sim=sim, rng=rng)
    assert isinstance(mem, SharedMemory)


def test_factory_builds_shared():
    mem = create_memory("shared", clock=lambda: 0.0, log_reads=False)
    assert type(mem) is SharedMemory
    assert mem.log_reads is False


def test_factory_builds_emulated(rng):
    sim = Simulator()
    mem = create_memory(
        "emulated",
        clock=lambda: sim.now,
        sim=sim,
        rng=rng,
        emulation={"replicas": 5},
    )
    assert isinstance(mem, EmulatedMemory)
    assert mem.config.replicas == 5
    assert mem.config.majority == 3


def test_factory_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown memory backend"):
        create_memory("quantum", clock=lambda: 0.0)


def test_factory_rejects_dead_emulation_options():
    with pytest.raises(ValueError, match="backend is 'shared'"):
        create_memory("shared", clock=lambda: 0.0, emulation={"replicas": 5})


def test_factory_emulated_needs_sim_and_rng():
    with pytest.raises(ValueError, match="simulator and RNG"):
        create_memory("emulated", clock=lambda: 0.0)
