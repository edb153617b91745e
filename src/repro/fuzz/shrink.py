"""Shrinking a violating genome back toward the baseline.

Two-stage reduction, both stages sharing one oracle budget:

1. **Fault-plan ddmin** -- the fault-plan axis is delegated to
   :func:`repro.faults.shrink.shrink_plan` (the chaos campaigns' delta
   debugger), after first trying the empty plan outright, so the
   timeline inside the genome is 1-minimal at the fault-group level.
2. **Per-axis reduction** -- every other axis is repeatedly offered its
   :data:`~repro.fuzz.genome.BASELINE_GENOME` value in a fixed order;
   a reduction is kept only when the oracle still violates, and the
   loop runs to fixpoint.  The ``backend -> shared`` reduction is the
   big step (it erases every emulated-only axis at once), so it is
   offered only once the emulated axes are already at baseline --
   otherwise a single lucky oracle run could hide which axis carried
   the violation.

The result is 1-minimal in genome mutation steps: restoring any single
reduced axis (or removing any remaining fault group) makes the
violation disappear, so the pinned repro's
:meth:`~repro.fuzz.genome.ScenarioGenome.complexity` is the smallest
the oracle supports.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

from repro.faults.plan import FaultPlan
from repro.faults.shrink import shrink_plan
from repro.fuzz.genome import BASELINE_GENOME, ScenarioGenome

#: Reduction order: cheap single-axis resets first, the backend
#: collapse last.  ``resync`` and ``transition`` (the two deliberately
#: broken emulation modes) reduce first so a genuinely broken mode is
#: never masked by axis noise.
AXIS_ORDER = (
    "resync",
    "transition",
    "crash",
    "delay",
    "consistency",
    "membership_plan",
    "links",
    "algorithm",
    "n",
    "replicas",
    "backend",
)


@dataclass
class GenomeShrinkResult:
    """Outcome of one :func:`shrink_genome` reduction."""

    #: The minimal violating genome.
    genome: ScenarioGenome
    #: Oracle invocations spent (fault ddmin + axis passes).
    oracle_runs: int = 0
    #: Accepted reductions, in order (diagnostics).
    steps: List[str] = field(default_factory=list)


def _reduced(genome: ScenarioGenome, axis: str) -> Optional[ScenarioGenome]:
    """``genome`` with ``axis`` at its baseline value; ``None`` when the
    axis is already there or the reduction is not a legal genome."""
    baseline = BASELINE_GENOME
    if axis == "backend":
        # Only collapse once every emulated-only axis is baseline, so
        # the collapse is a true single step.
        if genome.backend == "shared" or genome.off_baseline_emulated_axes():
            return None
        return genome.on_shared_memory()
    current = getattr(genome, axis)
    target = getattr(baseline, axis)
    if current == target:
        return None
    try:
        return replace(genome, **{axis: target})
    except ValueError:
        # e.g. replicas -> 3 under a plan that faults replica index 4.
        return None


def shrink_genome(
    genome: ScenarioGenome,
    is_violating: Callable[[ScenarioGenome], bool],
    *,
    max_oracle_runs: int = 120,
) -> GenomeShrinkResult:
    """Reduce a violating ``genome`` to a mutation-minimal repro.

    ``genome`` is assumed violating and not re-checked.  Within the
    oracle budget the result is guaranteed violating; the budget is a
    safety valve for pathological oracles, not a practical limit.
    """
    result = GenomeShrinkResult(genome=genome)

    def check(candidate: ScenarioGenome) -> bool:
        result.oracle_runs += 1
        return is_violating(candidate)

    # Stage 1: the fault-plan axis, via the chaos delta debugger.
    current = result.genome
    if current.fault_plan:
        empty = current.with_plan(FaultPlan(()))
        if result.oracle_runs < max_oracle_runs and check(empty):
            current = empty
            result.steps.append("faults->()")
        else:
            shrunk = shrink_plan(
                FaultPlan(current.fault_plan),
                lambda plan: check(current.with_plan(plan)),
                max_oracle_runs=max(1, max_oracle_runs - result.oracle_runs),
            )
            if len(shrunk.plan) < len(FaultPlan(current.fault_plan)):
                result.steps.append(
                    f"faults:{len(FaultPlan(current.fault_plan))}->{len(shrunk.plan)}"
                )
            current = current.with_plan(shrunk.plan)

    # Stage 2: per-axis baseline reduction to fixpoint.
    changed = True
    while changed and result.oracle_runs < max_oracle_runs:
        changed = False
        for axis in AXIS_ORDER:
            if result.oracle_runs >= max_oracle_runs:
                break
            candidate = _reduced(current, axis)
            if candidate is None:
                continue
            if check(candidate):
                result.steps.append(f"{axis}->{getattr(candidate, axis)}")
                current = candidate
                changed = True

    result.genome = current
    return result


__all__ = ["AXIS_ORDER", "GenomeShrinkResult", "shrink_genome"]
