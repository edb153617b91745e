"""Discrete-event simulation substrate.

The paper's system model -- the classical asynchronous crash-prone shared
memory model ``AS[n, t=n-1]`` enriched with the behavioural assumption
``AWB`` -- is a *logical* model: process steps may be delayed arbitrarily
(but finitely), register operations linearize at points in a global time
line, and timers realize durations that may misbehave for an arbitrarily
long prefix.  A deterministic discrete-event simulator reproduces exactly
that semantics while keeping every run a pure function of its seed, which
is what the correctness experiments need.  (Real Python threads would add
GIL-scheduling noise without adding fidelity; see DESIGN.md.)

Modules
-------
``events``
    The event queue's entries: plain tuples, stable within equal
    timestamps, their interned kind ids, and the columnar
    :class:`EventLane` that makes an event cancellable.
``kernel``
    The :class:`~repro.sim.kernel.Simulator`: virtual clock, the queue
    storage, callback scheduling, the run loop.
``schedulers``
    Step-delay models, including the partially-synchronous model that
    enforces assumption *AWB1* for a designated process.
``crash``
    Crash plans: which process crashes when.
``rng``
    Named, seeded random streams so independent components never share a
    random sequence.
``tracing``
    The run trace: the observer's leader samples.
"""

from repro.sim.crash import CrashPlan
from repro.sim.events import EventLane
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.schedulers import (
    AdversarialStallDelay,
    FixedDelay,
    HeavyTailDelay,
    PartiallySynchronousDelay,
    StepDelayModel,
    UniformDelay,
)
from repro.sim.tracing import RunTrace

__all__ = [
    "AdversarialStallDelay",
    "CrashPlan",
    "EventLane",
    "FixedDelay",
    "HeavyTailDelay",
    "PartiallySynchronousDelay",
    "RngRegistry",
    "RunTrace",
    "Simulator",
    "StepDelayModel",
    "UniformDelay",
]
