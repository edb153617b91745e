"""The Omega specification, checked on observer samples.

The oracle must satisfy (paper Section 2.2):

* **Validity** -- every ``leader()`` returns a process identity;
* **Eventual Leadership** -- there is a finite time and a correct
  ``p_l`` such that afterwards every invocation returns ``l``;
* **Termination** -- invocations by correct processes terminate.

Eventual Leadership refers to a global time the processes cannot see;
the harness *can* see it, so the property becomes a concrete statement
about the tail of the sampled outputs -- Theorem 1, whose one judgement
lives in :mod:`repro.props.checkers`; :func:`check_eventual_leadership`
is its view for the figures and ``RunResult.stabilization()``.
Termination is structural in a simulator (no blocking primitives), so
we check its witness instead: every correct process completed
invocations, each within the a-priori op bound of ``n^2`` reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.core.interfaces import OmegaAlgorithm
from repro.props.checkers import leadership_verdict
from repro.sim.crash import CrashPlan
from repro.sim.tracing import RunTrace


@dataclass
class StabilizationReport:
    """Eventual-leadership verdict for one run."""

    stabilized: bool
    #: Earliest sample time from which every correct process's output is
    #: the common final value (None when not stabilized).
    time: Optional[float]
    #: The common final leader, if any.
    leader: Optional[int]
    #: Whether that leader is a correct process.
    leader_correct: bool
    #: Final sampled output per correct process.
    final_by_pid: Dict[int, int] = field(default_factory=dict)

    def __bool__(self) -> bool:  # truthiness == the verdict
        return self.stabilized


def check_validity(trace: RunTrace, n: int) -> bool:
    """Every sampled ``leader()`` output is a process identity."""
    return all(0 <= leader < n for _, _, leader in trace.leader_samples())


def check_eventual_leadership(
    trace: RunTrace,
    crash_plan: CrashPlan,
    horizon: float,
    margin: float = 0.0,
) -> StabilizationReport:
    """Decide Eventual Leadership from the sampled outputs.

    The verdict is *empirical*: stabilization must be visible within the
    horizon.  A run that would stabilize later is reported as not
    stabilized -- benches choose horizons generously above the
    scenario's stabilization knobs.

    ``margin`` demands the common output held for at least that much
    virtual time before the horizon; even with the default ``0.0`` a
    common value appearing only at the very last sample does not count.

    The decision is :func:`repro.props.checkers.leadership_verdict`'s
    (which also owns the rule for who counts as faulty); this maps it
    onto the report the figures read.
    """
    verdict = leadership_verdict(trace, crash_plan, horizon, margin=margin)
    return StabilizationReport(
        stabilized=verdict.holds,
        time=verdict.settle_time,
        leader=verdict.leader,
        leader_correct=verdict.leader_correct,
        final_by_pid=verdict.final_by_pid,
    )


@dataclass
class TerminationReport:
    """Structural witness of the Termination property."""

    ok: bool
    invocations_by_pid: Dict[int, int]
    max_ops_by_pid: Dict[int, int]
    bound: int


def check_termination(
    algorithms: Sequence[OmegaAlgorithm],
    crash_plan: CrashPlan,
) -> TerminationReport:
    """Check every correct process completed ``leader()`` invocations,
    each within the ``n^2`` read bound."""
    n = len(algorithms)
    bound = n * n
    invocations = {alg.pid: alg.leader_invocations for alg in algorithms}
    max_ops = {alg.pid: alg.max_leader_ops for alg in algorithms}
    ok = all(
        invocations[pid] > 0 and max_ops[pid] <= bound
        for pid in range(n)
        if crash_plan.is_correct(pid)
    )
    return TerminationReport(ok=ok, invocations_by_pid=invocations, max_ops_by_pid=max_ops, bound=bound)


__all__ = [
    "StabilizationReport",
    "TerminationReport",
    "check_eventual_leadership",
    "check_termination",
    "check_validity",
]
