"""Interval register histories: the one record and the one checker.

Two substrates turn a register access into an *interval* -- an
invocation, a hidden linearization point, a response:

* the SAN disk model (:mod:`repro.memory.disk`), which linearizes every
  access at a sampled point inside its interval;
* the ABD register emulation (:mod:`repro.memory.emulated`), whose
  quorum phases complete at their linearization point (history
  recording must be enabled via ``EmulationConfig.record_history``).

Both record one :class:`OpRecord` per operation.  A value is identified
by the ``(counter, pid)`` *stamp* its write carried -- the emulation's
protocol timestamp, the disk's per-register write counter plus the
writer -- and :data:`INITIAL_TS` stamps the pre-run initial value.

Lamport's classical characterization says such a history is atomic iff
three conditions hold:

1. **No read from the future** -- a read may not return a value whose
   write was invoked after the read responded.
2. **No stale read** -- a read may not return a value that was already
   overwritten before the read was invoked (a strictly newer write
   responded before the read began).
3. **No new/old inversion** -- if one read responds before another is
   invoked, the later read must not return an older value.

Conditions 1-2 alone characterize Lamport's *regular* level: every read
returns the last completed write or one concurrent with it, but
non-overlapping reads may still see new-then-old.  That split is
exactly the emulation's consistency axis: regular-level runs are
audited by :func:`check_regular_history` (conditions 1-2), atomic-level
runs by :func:`check_atomic_history` (all three) -- and
:mod:`repro.memory.anomaly` pins a deterministic history that passes
the former and fails the latter.  The disk linearizes inside every
interval, so its histories are judged atomic.

Everything is checked purely from the ``(inv, resp, ts, value)``
fields; the hidden linearization points are never recorded.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: The stamp every pre-run initial value carries: ``(counter, pid)``
#: stamps order lexicographically, so it predates every real write.
INITIAL_TS: Tuple[int, int] = (0, -1)


@dataclass(frozen=True, slots=True)
class OpRecord:
    """One completed (or still-pending) interval operation.

    ``ts`` is the ``(counter, pid)`` stamp the operation wrote, or the
    one whose value a read returned (:data:`INITIAL_TS` for the pre-run
    initial value); ``value`` is the payload written or returned.  A
    write still in flight when the run ends is reported with
    ``resp = math.inf`` (invoked, never responded).
    """

    op_id: int
    kind: str  # "read" | "write"
    pid: int
    register: str
    ts: Tuple[int, int]
    value: Any
    inv: float
    resp: float


@dataclass(frozen=True, slots=True)
class Violation:
    """A single linearizability violation."""

    register: str
    rule: str
    detail: str


@dataclass(slots=True)
class LinearizabilityReport:
    """Outcome of a history check."""

    ok: bool
    violations: List[Violation] = field(default_factory=list)
    registers_checked: int = 0
    ops_checked: int = 0

    def summary(self) -> str:
        """One-paragraph human-readable verdict (first 10 violations).

        An empty history is reported as vacuous -- "0 ops consistent"
        must not read like evidence -- and a long violation list states
        how many entries were elided instead of truncating silently.
        """
        if self.ops_checked == 0:
            return "empty history: no operations to check (vacuously consistent)"
        if self.ok:
            return (
                f"consistent: {self.ops_checked} ops over "
                f"{self.registers_checked} registers"
            )
        lines = [f"NOT consistent ({len(self.violations)} violations):"]
        lines += [f"  [{v.register}] {v.rule}: {v.detail}" for v in self.violations[:10]]
        if len(self.violations) > 10:
            lines.append(f"  ... and {len(self.violations) - 10} more")
        return "\n".join(lines)


def _check_interval_history(
    history: Sequence[OpRecord], *, require_atomic: bool
) -> LinearizabilityReport:
    """Shared engine of the regular/atomic interval-order checks.

    Reads must return their named write's exact value.  Writes pending
    at the end of a run carry ``resp = inf`` and can never trigger the
    stale-read rule.  ``require_atomic`` adds the new/old-inversion
    rule (condition 3) on top of the regularity rules (conditions 1-2).
    """
    by_register: Dict[str, List[OpRecord]] = {}
    for rec in history:
        by_register.setdefault(rec.register, []).append(rec)

    report = LinearizabilityReport(ok=True)
    for register, ops in sorted(by_register.items()):
        report.registers_checked += 1
        report.ops_checked += len(ops)
        writes = [o for o in ops if o.kind == "write"]
        reads = [o for o in ops if o.kind == "read"]

        # Distinct timestamps: two completed writes claiming the same
        # (counter, pid) stamp would make "the value a read returned"
        # ambiguous; report it cleanly and keep the last per stamp.
        write_by_ts: Dict[Tuple[int, int], OpRecord] = {}
        for w in writes:
            if w.ts in write_by_ts:
                report.violations.append(
                    Violation(
                        register,
                        "duplicate-timestamp",
                        f"two writes claim timestamp {w.ts} "
                        f"(second spans [{w.inv}, {w.resp}])",
                    )
                )
            write_by_ts[w.ts] = w

        # Prefix maxima of completed-write timestamps by response time:
        # completed_max_ts_before(t) in O(log W) per read.
        completed = sorted((w for w in writes if w.resp != float("inf")), key=lambda w: w.resp)
        resp_times: List[float] = []
        prefix_max: List[Tuple[Tuple[int, int], Optional[OpRecord]]] = []
        best: Tuple[Tuple[int, int], Optional[OpRecord]] = (INITIAL_TS, None)
        for w in completed:
            if w.ts > best[0]:
                best = (w.ts, w)
            resp_times.append(w.resp)
            prefix_max.append(best)

        for r in reads:
            named = write_by_ts.get(r.ts)
            if r.ts != INITIAL_TS and named is None:
                report.violations.append(
                    Violation(
                        register,
                        "phantom-read",
                        f"read [{r.inv}, {r.resp}] returned unknown timestamp {r.ts}",
                    )
                )
                continue
            # Value integrity: the read's timestamp names a recorded
            # write, so the read must return that write's exact value.
            # Timestamps alone pass under value corruption (a mutated
            # payload travels with a valid stamp); cross-checking the
            # quorum certificate's value closes that hole.
            if named is not None and r.value != named.value:
                report.violations.append(
                    Violation(
                        register,
                        "value-corruption",
                        f"read [{r.inv}, {r.resp}] returned value {r.value!r} "
                        f"for timestamp {r.ts} but its write recorded "
                        f"{named.value!r}",
                    )
                )
            # Rule 1: no read from the future.
            if named is not None and named.inv > r.resp:
                report.violations.append(
                    Violation(
                        register,
                        "read-from-future",
                        f"read [{r.inv}, {r.resp}] returned timestamp {r.ts} "
                        f"whose write was invoked at {named.inv}",
                    )
                )
            # Rule 2: no stale read -- a strictly newer write must not
            # have completed before the read was invoked.
            idx = bisect.bisect_left(resp_times, r.inv)
            if idx > 0:
                newest_ts, newest = prefix_max[idx - 1]
                if newest is not None and newest_ts > r.ts:
                    report.violations.append(
                        Violation(
                            register,
                            "stale-read",
                            f"read [{r.inv}, {r.resp}] returned timestamp {r.ts} "
                            f"but write {newest_ts} responded at {newest.resp}",
                        )
                    )

        # Rule 3 (atomic only): no new/old inversion between
        # non-overlapping reads.  Sweep reads by invocation, keeping the
        # max timestamp among reads already responded.
        if require_atomic:
            by_inv = sorted(reads, key=lambda r: r.inv)
            by_resp = sorted(reads, key=lambda r: r.resp)
            max_done: Tuple[Tuple[int, int], Optional[OpRecord]] = (INITIAL_TS, None)
            done_idx = 0
            for r in by_inv:
                while done_idx < len(by_resp) and by_resp[done_idx].resp < r.inv:
                    prev = by_resp[done_idx]
                    if prev.ts > max_done[0]:
                        max_done = (prev.ts, prev)
                    done_idx += 1
                witness = max_done[1]
                if witness is not None and max_done[0] > r.ts:
                    report.violations.append(
                        Violation(
                            register,
                            "new-old-inversion",
                            f"read ending {witness.resp} saw timestamp {witness.ts}; "
                            f"later read starting {r.inv} saw older timestamp {r.ts}",
                        )
                    )

    report.ok = not report.violations
    return report


def check_regular_history(history: Sequence[OpRecord]) -> LinearizabilityReport:
    """Regularity audit of an interval history.

    Every read must return the last completed write's value or one
    concurrent with the read (conditions 1-2 of the module docstring).
    This is the level the paper requires and what the emulation's
    default ``"regular"`` consistency provides, so regular-level runs
    must pass this check -- while possibly failing
    :func:`check_atomic_history` (new/old inversions are regular-legal).
    """
    return _check_interval_history(history, require_atomic=False)


def check_atomic_history(history: Sequence[OpRecord]) -> LinearizabilityReport:
    """Atomicity (linearizability) audit of an interval history.

    All three conditions of the module docstring; the emulation's
    ``"atomic"`` consistency level (reads with the ABD write-back
    phase) and every SAN disk run must produce zero violations here.
    """
    return _check_interval_history(history, require_atomic=True)


__all__ = [
    "INITIAL_TS",
    "LinearizabilityReport",
    "OpRecord",
    "Violation",
    "check_atomic_history",
    "check_regular_history",
]
