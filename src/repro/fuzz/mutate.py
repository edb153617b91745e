"""Seeded one-axis genome mutations.

Every operator perturbs exactly one :class:`~repro.fuzz.genome.ScenarioGenome`
axis, drawing all randomness from a caller-supplied ``random.Random``
instance -- the fuzz loop owns a single stream seeded from its config,
so the genome sequence is a pure function of ``(seed, corpus)`` (the
determinism tests compare it byte for byte).

Two structural rules keep every mutation a *single* step:

* the ``links`` axis is only mutable while the fault and membership
  plans are empty (both timelines are defined over the sync fabric, so
  re-linking would have to clear them too);
* the ``faults`` and ``membership`` axes are only mutable while the
  links are ``sync``, and each only while the *other* plan is empty --
  composed fault + membership timelines can starve quorums in ways no
  single mutation step could introduce legally.

Fault plans are drawn from the same conservative
:class:`~repro.faults.generator.FaultScheduleGenerator` the chaos
campaigns use, sized for the *smallest* emulated horizon -- so a plan
stays legal (serialized windows, quiet tail) under every horizon a
later axis mutation can derive.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Any, List, Tuple

from repro.faults.generator import FaultScheduleGenerator
from repro.memory.membership import churn_plan
from repro.fuzz.genome import (
    BASELINE_GENOME,
    DEFAULT_BASE_HORIZON,
    GENOME_AXES,
    ScenarioGenome,
)

#: Disturbance windows per generated fault-plan axis value.
MAX_PLAN_FAULTS = 2


def _plan_horizon(base: float) -> float:
    """The horizon fault plans are sized for: the smallest horizon any
    emulated genome can derive (sync links, regular reads)."""
    return base * 1.5


def _pick_other(rng: random.Random, pool: Tuple[Any, ...], current: Any) -> Any:
    """A uniformly drawn pool member different from ``current``."""
    return rng.choice([value for value in pool if value != current])


def _mutable_axes(genome: ScenarioGenome) -> List[str]:
    """The axes a single mutation may touch on ``genome``."""
    axes = ["algorithm", "n", "delay", "crash", "backend"]
    if genome.backend == "emulated":
        axes.append("consistency")
        if genome.fault_plan == () and genome.membership_plan == ():
            axes.append("links")
        if genome.links == "sync":
            if genome.membership_plan == ():
                axes.append("faults")
            if genome.fault_plan == ():
                axes.append("membership")
            # Replica-count moves must keep both plans' indices legal
            # (a membership join names the next fresh index, a fault
            # event a current one); offering the axis only on a
            # plan-free genome keeps the mutation single-step.
            if genome.fault_plan == () and genome.membership_plan == ():
                axes.append("replicas")
    return axes


def _fresh_plan(
    genome: ScenarioGenome, rng: random.Random, base_horizon: float
) -> ScenarioGenome:
    """Replace the fault-plan axis with a freshly generated timeline."""
    generator = FaultScheduleGenerator(
        rng.randrange(2**31),
        replicas=genome.replicas,
        horizon=_plan_horizon(base_horizon),
        max_faults=MAX_PLAN_FAULTS,
        quiet_tail=0.45,
    )
    return genome.with_plan(generator.generate(0))


def mutate(
    genome: ScenarioGenome,
    rng: random.Random,
    *,
    base_horizon: float = DEFAULT_BASE_HORIZON,
) -> ScenarioGenome:
    """One uniformly drawn single-axis mutation of ``genome``."""
    axis = rng.choice(_mutable_axes(genome))
    if axis == "backend":
        if genome.backend == "shared":
            return replace(genome, backend="emulated")
        return genome.on_shared_memory()
    if axis == "membership":
        # Clear a non-empty plan half the time, else install the
        # canonical replace-one-replica churn.  Sized for the smallest
        # emulated horizon (like fault plans), so the join/leave pair
        # always lands mid-run with a quiet tail; the churn itself never
        # drops below a quorum (join first, then a single leave).
        if genome.membership_plan and rng.random() < 0.5:
            return replace(genome, membership_plan=())
        plan = churn_plan(genome.replicas, _plan_horizon(base_horizon))
        return replace(genome, membership_plan=plan.events)
    if axis == "faults":
        # Clear a non-empty plan half the time, else draw a fresh
        # timeline (also the only way *onto* the axis).
        if genome.fault_plan and rng.random() < 0.5:
            return replace(genome, fault_plan=())
        return _fresh_plan(genome, rng, base_horizon)
    # Every other axis moves to another member of its vocabulary.
    pool = GENOME_AXES[axis].vocabulary
    return replace(genome, **{axis: _pick_other(rng, pool, getattr(genome, axis))})


def random_genome(
    rng: random.Random,
    *,
    base_horizon: float = DEFAULT_BASE_HORIZON,
    max_mutations: int = 3,
) -> ScenarioGenome:
    """A genome ``0..max_mutations`` single-axis steps from baseline.

    Zero steps yields the baseline itself, so a seeded population
    always contains the origin of the space.
    """
    genome = BASELINE_GENOME
    for _ in range(rng.randint(0, max_mutations)):
        genome = mutate(genome, rng, base_horizon=base_horizon)
    return genome


__all__ = ["MAX_PLAN_FAULTS", "mutate", "random_genome"]
