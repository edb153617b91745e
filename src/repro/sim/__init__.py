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
    The time-ordered event queue: plain tuple heap entries, stable
    within equal timestamps, and the columnar :class:`EventLane` that
    makes an event cancellable.
``kernel``
    The :class:`~repro.sim.kernel.Simulator`: virtual clock, callback
    scheduling, run-loop with stop predicates.
``schedulers``
    Step-delay models, including the partially-synchronous model that
    enforces assumption *AWB1* for a designated process.
``crash``
    Crash plans: which process crashes when.
``rng``
    Named, seeded random streams so independent components never share a
    random sequence.
``tracing``
    Structured run traces (leader samples, custom records).
"""

from repro.sim.crash import CrashPlan
from repro.sim.events import EventLane
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.schedulers import (
    AdversarialStallDelay,
    CompositeDelay,
    FixedDelay,
    HeavyTailDelay,
    PartiallySynchronousDelay,
    StepDelayModel,
    UniformDelay,
)
from repro.sim.tracing import RunTrace, TraceRecord

__all__ = [
    "AdversarialStallDelay",
    "CompositeDelay",
    "CrashPlan",
    "EventLane",
    "FixedDelay",
    "HeavyTailDelay",
    "PartiallySynchronousDelay",
    "RngRegistry",
    "RunTrace",
    "Simulator",
    "StepDelayModel",
    "TraceRecord",
    "UniformDelay",
]
