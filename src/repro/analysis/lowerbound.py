"""Theorem 5 ingredients: bounded memory forces everybody to write.

The paper's proof constructs runs in which, were fewer than ``t + 1``
processes writing forever, the bounded shared memory would revisit the
same global state ``S`` infinitely often; stalling the remaining
(asynchronous) processes so that all their reads land in state ``S``
makes the run indistinguishable from one where the writers crashed --
contradiction.

Empirically we exhibit the two ingredients and the predicted outcome:

1. **State recurrence** -- under a bounded-memory algorithm the global
   shared state (projected on registers, which are all bounded) recurs;
   under Algorithm 1 the growing ``PROGRESS[ell]`` makes every snapshot
   distinct.  :func:`state_recurrence` measures this on the snapshots a
   run records.
2. **Writer census** -- bounded-memory algorithms keep *all* correct
   processes writing forever; Algorithm 1 converges to a single writer.
   (:func:`repro.analysis.write_stats.forever_writers`.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Optional, Sequence, Tuple

from repro.analysis.write_stats import forever_writers
from repro.core.runner import RunResult

Snapshot = Tuple[Tuple[str, Any], ...]


@dataclass
class RecurrenceReport:
    """State-recurrence statistics over a run's snapshots."""

    snapshots: int
    distinct_states: int
    #: Largest number of times any single state was observed.
    max_recurrence: int
    #: True when some state was seen at least twice after the first
    #: quarter of the run (the pigeonhole signature of bounded memory).
    recurrent: bool


def state_recurrence(
    snapshots: Sequence[Tuple[float, Snapshot]],
    settle_fraction: float = 0.25,
    horizon: Optional[float] = None,
) -> RecurrenceReport:
    """Measure recurrence of global shared-memory states.

    Snapshots taken before ``settle_fraction`` of the horizon are
    ignored so start-up churn (suspicion counters still moving) does not
    mask the steady state.
    """
    if not snapshots:
        return RecurrenceReport(0, 0, 0, False)
    end = horizon if horizon is not None else snapshots[-1][0]
    cutoff = end * settle_fraction
    counts: Dict[Snapshot, int] = {}
    considered = 0
    for t, snap in snapshots:
        if t < cutoff:
            continue
        considered += 1
        counts[snap] = counts.get(snap, 0) + 1
    if not counts:
        return RecurrenceReport(0, 0, 0, False)
    max_rec = max(counts.values())
    return RecurrenceReport(
        snapshots=considered,
        distinct_states=len(counts),
        max_recurrence=max_rec,
        recurrent=max_rec >= 2,
    )


@dataclass
class Theorem5Row:
    """One row of the Theorem 5 census table."""

    algorithm: str
    bounded_memory: bool
    correct: FrozenSet[int]
    forever_writers: FrozenSet[int]
    all_correct_write_forever: bool
    recurrence: RecurrenceReport


def theorem5_census(
    result: RunResult,
    bounded_memory: bool,
    window: float = 100.0,
    count: int = 4,
) -> Theorem5Row:
    """Build the census row Theorem 5 / Corollary 1 predicts.

    For a bounded-memory algorithm the correct set should equal the
    forever-writer set and states should recur; for Algorithm 1 the
    forever-writer set should be the singleton leader and states should
    not recur.
    """
    writers = forever_writers(result.memory, result.horizon, window=window, count=count)
    correct = result.crash_plan.correct
    recurrence = state_recurrence(result.snapshots, horizon=result.horizon)
    return Theorem5Row(
        algorithm=result.algorithm_name,
        bounded_memory=bounded_memory,
        correct=correct,
        forever_writers=writers,
        all_correct_write_forever=correct <= writers,
        recurrence=recurrence,
    )


__all__ = ["RecurrenceReport", "Theorem5Row", "state_recurrence", "theorem5_census"]
