"""The one implementation of each of Theorems 1-4.

Two theorems are *folds* over a run's event streams and two are
*queries* over the memory's own write index:

* Theorem 1 -- :class:`StabilizationMonitor`, a fold over the observer's
  leader samples (:func:`leadership_verdict` replays a finished run
  through it);
* Theorem 2 -- :class:`BoundednessMonitor`, a fold over the write log
  into a table of record-setting writes (:func:`record_table`);
* Theorem 3 -- :func:`single_writer_verdict` over :func:`tail_writes`;
* Theorem 4 -- :func:`write_optimality_verdict` over
  :func:`in_every_tail_window`;

both of the latter read the bisect-backed window queries of
:class:`~repro.memory.memory.SharedMemory` through the single
:func:`tail_windows`.  Everything else that speaks about these
properties -- :func:`repro.props.report.check_properties`, the census
columns of :class:`~repro.engine.summary.RunSummary`, the per-figure
views in :mod:`repro.analysis` -- reads these, so a verdict and the
census printed next to it cannot disagree.

All verdicts are empirical: "eventually P" on a finite trace means "P
held over the instrumented tail of the horizon".  Scenarios choose
horizons generously above their stabilization knobs so a failed tail is
evidence, not noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

#: "Forever" on a finite trace: in every one of this many tail windows.
CENSUS_WINDOWS = 4


def progress_register(leader: int) -> str:
    """The one register Theorems 2/3 exempt: the leader's ``PROGRESS``
    entry (``PROGRESS[ell]`` in the paper, ``PROGRESS[<ell>]`` in the
    shared-memory namespace)."""
    return f"PROGRESS[{leader}]"


# ----------------------------------------------------------------------
# Theorem 1 -- eventual common correct leader, with churn accounting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LeadershipVerdict:
    """Measured Theorem 1 outcome."""

    holds: bool
    #: Common final leader of the correct processes (also set when the
    #: verdict fails for a reason other than disagreement).
    leader: Optional[int]
    #: Time the last correct process settled on the final value.
    settle_time: Optional[float]
    #: Leader-output changes by correct processes (the churn the run
    #: went through before -- or without -- settling).
    churn: int
    #: ... by every process, including ones that later crashed.
    churn_all: int
    #: Distinct leader values ever output by correct processes.
    leaders_seen: int
    detail: str = ""
    #: Whether ``leader`` is itself a correct process.
    leader_correct: bool = False
    #: Final sampled output per correct process.
    final_by_pid: Dict[int, int] = field(default_factory=dict)


class StabilizationMonitor:
    """Theorem 1: after some finite time every correct process's
    ``leader()`` output is one common correct identity.

    ``margin`` demands the common value held for at least that much
    virtual time before the horizon (a value appearing only at the last
    sample is not "eventual").  Crash accounting: output churn by a
    process that later crashes never counts against the verdict; only
    never-crashed processes must agree.
    """

    def __init__(self, horizon: float, margin: float = 0.0) -> None:
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.horizon = horizon
        self.margin = margin
        self._crashed: Set[int] = set()
        self._last: Dict[int, int] = {}
        self._streak_start: Dict[int, float] = {}
        self._changes: Dict[int, int] = {}
        self._values_seen: Dict[int, Set[int]] = {}

    def observe_crash(self, time: float, pid: int) -> None:
        """Note a crash: the pid's samples stop counting for the verdict."""
        self._crashed.add(pid)

    def observe_sample(self, time: float, pid: int, leader: int) -> None:
        """Feed one sampled ``leader()`` output; tracks streaks and churn."""
        if pid not in self._last:
            self._last[pid] = leader
            self._streak_start[pid] = time
            self._changes[pid] = 0
            self._values_seen[pid] = {leader}
            return
        self._values_seen[pid].add(leader)
        if leader != self._last[pid]:
            self._last[pid] = leader
            self._streak_start[pid] = time
            self._changes[pid] += 1

    def finish(self) -> LeadershipVerdict:
        """Fold the samples into the Theorem 1 verdict."""
        crashed = self._crashed
        final_by_pid = {pid: out for pid, out in self._last.items() if pid not in crashed}
        churn = sum(self._changes[pid] for pid in final_by_pid)
        finals = set(final_by_pid.values())
        leader = min(finals) if len(finals) == 1 else None
        settle = None
        if not final_by_pid:
            detail = "no samples from any correct process"
        elif leader is None:
            detail = f"correct processes disagree: final outputs {sorted(finals)}"
        elif leader in crashed:
            detail = f"common output p{leader} is a crashed process"
        else:
            settle = max(self._streak_start[pid] for pid in final_by_pid)
            if settle + self.margin >= self.horizon:
                detail = (
                    f"p{leader} common only from t={settle:.0f}, inside the "
                    f"margin ({self.margin:.0f}) of the horizon"
                )
                settle = None
            else:
                detail = f"p{leader} from t={settle:.0f} after {churn} output change(s)"
        return LeadershipVerdict(
            holds=settle is not None,
            leader=leader,
            settle_time=settle,
            churn=churn,
            churn_all=sum(self._changes.values()),
            leaders_seen=len(set().union(*(self._values_seen[pid] for pid in final_by_pid))),
            detail=detail,
            leader_correct=leader is not None and leader not in crashed,
            final_by_pid=final_by_pid,
        )


def leadership_verdict(
    trace: Any, crash_plan: Any, horizon: float, margin: float = 0.0
) -> LeadershipVerdict:
    """Replay a finished run's crash plan and leader samples through
    :class:`StabilizationMonitor`.

    Only the trace's change points are fed, each pid's in time order and
    the pids in order of first appearance: a sample that repeats its
    pid's previous leader leaves the monitor's state as it was, so the
    verdict is the one the full rows give, without expanding them.

    Edge rule: a process is *faulty* for this verdict iff its crash time
    is ``<= horizon`` -- a crash planned beyond the horizon never
    happened in the run, so that process's samples count and it may be
    the elected leader.
    """
    monitor = StabilizationMonitor(horizon, margin=margin)
    for pid, t in crash_plan.crash_times.items():
        if t <= horizon:
            monitor.observe_crash(t, pid)
    for t, pid, leader in trace.leader_changes():
        monitor.observe_sample(t, pid, leader)
    return monitor.finish()


# ----------------------------------------------------------------------
# Theorem 2 -- every shared variable except PROGRESS[ell] bounded
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BoundednessVerdict:
    """Measured Theorem 2 outcome."""

    holds: bool
    #: Registers whose numeric maximum was still increasing in the tail.
    growing: Tuple[str, ...]
    #: The subset of ``growing`` the theorem does *not* allow.
    offending: Tuple[str, ...]
    detail: str = ""
    #: Registers with at least one record-setting write in the plain
    #: tail (the census's looser "still growing": threshold 1, no
    #: settle point).
    record_setters: Tuple[str, ...] = ()


class BoundednessMonitor:
    """Theorem 2: per-register growth monitor.

    The theorem quantifies "after some time": growth is judged over an
    end suffix of the run -- the final ``tail_fraction``, pushed later
    to the election's settle point when ``finish`` receives one (a run
    that stabilized late is only accountable for growth *after*
    stabilizing; before it, several candidates legitimately advance
    their own ``PROGRESS`` entries while contending).

    A register is *still growing* when at least ``min_records`` writes
    in that suffix each strictly exceeded every value written before
    them.  One record-setter is not growth: a bounded-but-slowly
    settling counter (e.g. a rare late false suspicion whose next
    occurrence is another timeout-doubling away) legitimately sets a
    last record inside any finite suffix, while a genuinely unbounded
    register (``PROGRESS[ell]``) sets records with every write, so the
    threshold separates the populations cleanly.  Non-numeric values
    (the booleans of Algorithm 2's hand-shake) never grow.

    State stays bounded by the *tail's* record-setting writes: earlier
    records only update the running maxima.
    """

    def __init__(
        self,
        horizon: float,
        tail_fraction: float = 0.25,
        min_records: int = 2,
    ) -> None:
        if not 0 < tail_fraction < 1:
            raise ValueError("tail_fraction must be in (0, 1)")
        if min_records < 1:
            raise ValueError("min_records must be >= 1")
        self.horizon = horizon
        self.tail_start = horizon * (1.0 - tail_fraction)
        self.min_records = min_records
        #: Largest numeric value written so far, per register.
        self.max_by_register: Dict[str, float] = {}
        self._tail_record_times: Dict[str, List[float]] = {}

    def observe_write(self, time: float, pid: int, register: str, value: object) -> None:
        """Feed one write; records when a register sets a new numeric max."""
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return
        v = float(value)
        if register not in self.max_by_register or v > self.max_by_register[register]:
            self.max_by_register[register] = v
            if time >= self.tail_start:
                self._tail_record_times.setdefault(register, []).append(time)

    def growing_registers(
        self, since: Optional[float] = None, min_records: Optional[int] = None
    ) -> Tuple[str, ...]:
        """Registers with >= ``min_records`` (default: the monitor's)
        record-setting writes in ``[max(tail_start, since), horizon]``."""
        start = self.tail_start if since is None else max(self.tail_start, since)
        threshold = self.min_records if min_records is None else min_records
        return tuple(
            sorted(
                name
                for name, times in self._tail_record_times.items()
                if sum(1 for t in times if t >= start) >= threshold
            )
        )

    def finish(
        self,
        leader: Optional[int] = None,
        settle_time: Optional[float] = None,
    ) -> BoundednessVerdict:
        """Fold the record-setting writes into the Theorem 2 verdict."""
        growing = self.growing_registers(since=settle_time)
        allowed = {progress_register(leader)} if leader is not None else set()
        offending = tuple(name for name in growing if name not in allowed)
        holds = not offending
        if holds:
            detail = (
                "all shared variables bounded"
                if not growing
                else f"only {growing[0]} grows (the leader's PROGRESS entry)"
            )
        else:
            detail = f"still growing beyond PROGRESS[ell]: {', '.join(offending)}"
        return BoundednessVerdict(
            holds, growing, offending, detail, self.growing_registers(min_records=1)
        )


def record_table(
    write_log: Iterable[Any], horizon: float, tail_fraction: float = 0.25
) -> BoundednessMonitor:
    """One pass of a write log through a :class:`BoundednessMonitor`."""
    monitor = BoundednessMonitor(horizon, tail_fraction)
    for rec in write_log:
        monitor.observe_write(rec.time, rec.pid, rec.register, rec.value)
    return monitor


# ----------------------------------------------------------------------
# Tail windows over the memory's write index (Theorems 3 and 4)
# ----------------------------------------------------------------------
def tail_windows(
    horizon: float, window: float, count: int = CENSUS_WINDOWS
) -> List[Tuple[float, float]]:
    """The last ``count`` windows of ``[0, horizon]``, oldest first, as
    the half-open ``[t0, t1)`` pairs the memory's window queries take.

    Edge rule: the newest window is *closed* at the horizon -- an event
    at ``t == horizon`` fires and belongs to the run -- so its upper
    edge is the next float above ``horizon``.
    """
    if not (window > 0 and count > 0):
        raise ValueError("window and count must be positive")
    start = horizon - window * count
    if start < 0:
        raise ValueError("horizon too short for the requested windows")
    edges = [start + i * window for i in range(count)]
    edges.append(math.nextafter(horizon, math.inf))
    return list(zip(edges, edges[1:]))


def in_every_tail_window(
    query: Callable[[float, float], FrozenSet[int]],
    horizon: float,
    window: float = 100.0,
    count: int = CENSUS_WINDOWS,
) -> FrozenSet[int]:
    """Pids ``query(t0, t1)`` (``memory.writers_in`` / ``readers_in``)
    returns for *every* one of the last ``count`` windows."""
    return frozenset.intersection(
        *(query(t0, t1) for t0, t1 in tail_windows(horizon, window, count))
    )


def tail_writes(memory: Any, horizon: float, tail: float) -> Tuple[FrozenSet[int], FrozenSet[str]]:
    """``(pids, register names)`` that wrote / were written during the
    final ``tail`` time units, ``[horizon - tail, horizon]``."""
    ((t0, t1),) = tail_windows(horizon, tail, 1)
    return memory.writers_in(t0, t1), memory.registers_written_in(t0, t1)


# ----------------------------------------------------------------------
# Theorem 3 -- eventually a single writer of a single variable
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SingleWriterVerdict:
    """Measured Theorem 3 outcome."""

    holds: bool
    #: Pids that wrote during the final ``tail`` time units.
    tail_writers: Tuple[int, ...]
    #: Register names written during that tail.
    tail_registers: Tuple[str, ...]
    #: Last write by any process other than the leader (the point after
    #: which a single process writes); ``None`` without a leader.
    switch_time: Optional[float]
    detail: str = ""


def single_writer_verdict(
    memory: Any, horizon: float, tail: float = 100.0, leader: Optional[int] = None
) -> SingleWriterVerdict:
    """Theorem 3: eventually only the leader writes, always the same
    variable (``PROGRESS[ell]``)."""
    tail_pids, tail_names = tail_writes(memory, horizon, tail)
    writers, registers = tuple(sorted(tail_pids)), tuple(sorted(tail_names))
    switch = None if leader is None else memory.last_write_by_others(leader)
    holds = (
        leader is not None
        and writers == (leader,)
        and registers == (progress_register(leader),)
    )
    if holds:
        detail = f"only p{leader} writes {registers[0]} after t={switch:.0f}"
    else:
        detail = (
            f"tail writers {list(writers)} on registers {list(registers)}"
            + ("" if leader is not None else " (no stable leader)")
        )
    return SingleWriterVerdict(holds, writers, registers, switch, detail)


# ----------------------------------------------------------------------
# Theorem 4 -- write-optimality
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WriteOptimalityVerdict:
    """Measured Theorem 4 outcome."""

    holds: bool
    #: Pids that wrote in every one of the tail windows.
    forever_writers: Tuple[int, ...]
    #: The lower bound the paper proves: some process must write forever.
    optimum: int
    detail: str = ""


def write_optimality_verdict(
    memory: Any,
    horizon: float,
    window: float = 100.0,
    count: int = CENSUS_WINDOWS,
    leader: Optional[int] = None,
) -> WriteOptimalityVerdict:
    """Theorem 4: the forever-writer count meets the proven lower bound.

    The paper's lower bound says *at least one* process must keep
    writing forever; Algorithm 1 achieves exactly one (the leader), so
    the measured property is ``forever_writers == {ell}`` (without a
    leader: exactly one forever-writer, whoever it is).
    """
    forever = tuple(sorted(in_every_tail_window(memory.writers_in, horizon, window, count)))
    holds = forever == (leader,) if leader is not None else len(forever) == 1
    if holds:
        detail = f"exactly one forever-writer (p{forever[0]}): write-optimal"
    else:
        detail = f"forever-writers {list(forever)}; the optimum is 1"
    return WriteOptimalityVerdict(holds, forever, 1, detail)


__all__ = [
    "BoundednessMonitor",
    "BoundednessVerdict",
    "CENSUS_WINDOWS",
    "LeadershipVerdict",
    "SingleWriterVerdict",
    "StabilizationMonitor",
    "WriteOptimalityVerdict",
    "in_every_tail_window",
    "leadership_verdict",
    "progress_register",
    "record_table",
    "single_writer_verdict",
    "tail_windows",
    "tail_writes",
    "write_optimality_verdict",
]
