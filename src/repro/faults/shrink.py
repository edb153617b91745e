"""Delta-debugging a violating fault plan down to a minimal repro.

Classic ddmin (Zeller's minimizing delta debugger) over the plan's
:meth:`~repro.faults.plan.FaultPlan.groups` units rather than raw
events: a crash shrinks together with its recovery and a partition with
its heal, so every candidate the oracle sees is a *legal* timeline --
the debugger never wastes runs on recover-without-crash nonsense, and
the result it converges to is 1-minimal at the group level (removing
any single remaining fault group makes the violation disappear).

The oracle is an arbitrary ``is_violating(plan) -> bool`` callable;
:func:`repro.engine.search.settle` supplies one that replays the
candidate's pinned repro and applies the search oracle (theorem
monitors + history audit + write-ack integrity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

from repro.faults.plan import FaultEvent, FaultPlan


@dataclass
class ShrinkResult:
    """Outcome of one :func:`shrink_plan` reduction."""

    #: The 1-minimal violating plan.
    plan: FaultPlan
    #: Oracle invocations spent on the reduction.
    oracle_runs: int = 0
    #: Group counts the reduction stepped through (diagnostics).
    trajectory: List[int] = field(default_factory=list)


def _chunks(groups: Sequence[Tuple[FaultEvent, ...]], n: int) -> List[List[Tuple[FaultEvent, ...]]]:
    """Split ``groups`` into ``n`` near-equal contiguous chunks."""
    out: List[List[Tuple[FaultEvent, ...]]] = []
    size, extra = divmod(len(groups), n)
    start = 0
    for i in range(n):
        end = start + size + (1 if i < extra else 0)
        out.append(list(groups[start:end]))
        start = end
    return [chunk for chunk in out if chunk]


def shrink_plan(
    plan: FaultPlan,
    is_violating: Callable[[FaultPlan], bool],
    *,
    max_oracle_runs: int = 200,
) -> ShrinkResult:
    """Reduce ``plan`` to a 1-minimal violating plan via ddmin.

    ``plan`` must already violate (``is_violating(plan)`` is assumed
    true and not re-checked).  The oracle budget is a safety valve for
    pathological oracles; within it the result is guaranteed violating,
    and with the default budget every realistic campaign plan (a
    handful of groups) reduces fully.
    """
    result = ShrinkResult(plan=plan)
    groups: List[Tuple[FaultEvent, ...]] = plan.groups()
    result.trajectory.append(len(groups))

    def check(candidate_groups: Sequence[Tuple[FaultEvent, ...]]) -> bool:
        result.oracle_runs += 1
        return is_violating(FaultPlan.from_groups(candidate_groups))

    granularity = 2
    while len(groups) >= 2 and result.oracle_runs < max_oracle_runs:
        chunks = _chunks(groups, granularity)
        reduced = False
        for i in range(len(chunks)):
            complement = [g for j, chunk in enumerate(chunks) if j != i for g in chunk]
            if not complement:
                continue
            if check(complement):
                groups = complement
                result.trajectory.append(len(groups))
                granularity = max(granularity - 1, 2)
                reduced = True
                break
            if result.oracle_runs >= max_oracle_runs:
                break
        if not reduced:
            if granularity >= len(groups):
                break
            granularity = min(len(groups), 2 * granularity)

    result.plan = FaultPlan.from_groups(groups)
    return result


__all__ = ["ShrinkResult", "shrink_plan"]
