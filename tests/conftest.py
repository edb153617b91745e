"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.memory.memory import SharedMemory
from repro.sim.rng import RngRegistry
from repro.sim.variant import kernel_variant

REPO = Path(__file__).resolve().parent.parent


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


def run_under_other_kernel_variants(script: Path) -> Dict[str, Any]:
    """``{variant: the JSON script prints}`` from one ``REPRO_KERNEL``
    subprocess per kernel variant that differs from the in-process one
    and can run here.

    Without a built ``repro.sim._ckernel`` a ``compiled`` request falls
    back to pure Python (``tests/sim/test_variant.py`` covers that), so
    its leg would recompute the in-process grid on identical code: it is
    not run, and a warning says so.  CI's ``kernel-variants`` job builds
    the twin and runs both variants.
    """
    active = kernel_variant()[0]
    twin = importlib.util.find_spec("repro.sim._ckernel") is not None
    variants = [v for v in ("python", "compiled") if v != active and (v == "python" or twin)]
    if not variants:
        warnings.warn(
            f"{script.name}: no subprocess leg run -- the in-process kernel is {active!r} "
            "and there is no built repro.sim._ckernel to differ from it"
        )
    procs = {
        variant: subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=REPO,
            env={**os.environ, "REPRO_KERNEL": variant, "PYTHONPATH": str(REPO / "src")},
        )
        for variant in variants
    }  # fmt: skip
    try:
        out = {}
        for variant, proc in procs.items():
            stdout, stderr = proc.communicate(timeout=600)
            assert proc.returncode == 0, stderr
            out[variant] = json.loads(stdout)
        return out
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
