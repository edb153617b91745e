"""The Omega specification, checked on observer samples.

The oracle must satisfy (paper Section 2.2):

* **Validity** -- every ``leader()`` returns a process identity;
* **Eventual Leadership** -- there is a finite time and a correct
  ``p_l`` such that afterwards every invocation returns ``l``;
* **Termination** -- invocations by correct processes terminate.

Eventual Leadership refers to a global time the processes cannot see;
the harness *can* see it, so the property becomes a concrete statement
about the tail of the sampled outputs -- Theorem 1, whose one judgement
is :func:`repro.props.checkers.leadership_verdict` (what
``RunResult.stabilization()`` returns).
Termination is structural in a simulator (no blocking primitives), so
we check its witness instead: every correct process completed
invocations, each within the a-priori op bound of ``n^2`` reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.core.interfaces import OmegaAlgorithm
from repro.sim.crash import CrashPlan
from repro.sim.tracing import RunTrace


def check_validity(trace: RunTrace, n: int) -> bool:
    """Every sampled ``leader()`` output is a process identity (each
    sampled value is some change point's, so those are all it reads)."""
    return all(0 <= leader < n for _, _, leader in trace.leader_changes())


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


__all__ = ["TerminationReport", "check_termination", "check_validity"]
