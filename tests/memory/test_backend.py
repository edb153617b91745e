"""The memory-backend axis: every backend is a ``SharedMemory``, built by
``Run``'s register assembly from the backend's name."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.algorithm1 import WriteEfficientOmega
from repro.core.runner import BACKENDS, Run
from repro.memory.emulated import EmulatedMemory
from repro.memory.memory import SharedMemory
from repro.sim.kernel import Simulator
from repro.workloads.scenarios import nominal, nominal_emulated


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
    mem = Run(WriteEfficientOmega, 3, log_reads=False).memory
    assert type(mem) is SharedMemory
    assert mem.log_reads is False


def test_factory_builds_emulated():
    mem = Run(WriteEfficientOmega, 3, memory="emulated", emulation={"replicas": 5}).memory
    assert isinstance(mem, EmulatedMemory)
    assert mem.config.replicas == 5
    assert mem.config.majority == 3


def test_factory_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown memory backend"):
        Run(WriteEfficientOmega, 3, memory="quantum")
    with pytest.raises(ValueError, match="unknown memory backend 'quantum'"):
        dataclasses.replace(nominal(n=3), memory="quantum")


def test_factory_rejects_dead_emulation_options():
    with pytest.raises(ValueError, match="backend is 'shared'"):
        Run(WriteEfficientOmega, 3, emulation={"replicas": 5})
    with pytest.raises(ValueError, match="backend is 'shared'"):
        dataclasses.replace(nominal(n=3), emulation={"replicas": 5})


@pytest.mark.parametrize(
    "knobs, message",
    [
        ({"replicas": 3, "x": 1}, r"unknown emulation option\(s\): \['x'\]"),
        ({"replicas": 1}, "need at least two replicas for a meaningful quorum"),
        ({"retry_interval": 0}, "retry_interval must be positive"),
    ],
    ids=["unknown-option", "one-replica", "zero-retry"],
)
def test_scenario_refuses_what_the_emulation_config_refuses(knobs, message):
    """A scenario is refused when it is described, with the message
    ``EmulationConfig.from_dict`` gives, not first at ``build()``."""
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(nominal_emulated(n=3, horizon=600.0), emulation=knobs)
    with pytest.raises(ValueError, match=message):
        Run(WriteEfficientOmega, 3, memory="emulated", emulation=knobs)
