"""Crash plans: which process crashes, and when.

The paper's fault model is *crash-stop*: a faulty process halts
prematurely and takes no further step; there is no bound ``t`` on the
number of faults (both algorithms are independent of ``t``, so plans may
crash up to ``n - 1`` processes).  A :class:`CrashPlan` is a pure
description -- the runner consults it before every step, so crashing is
exact to the step granularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Mapping, Optional

from repro.sim.rng import RngRegistry


@dataclass(frozen=True)
class CrashPlan:
    """Immutable map from pid to crash time.

    A process absent from ``crash_times`` is *correct* (never crashes).
    ``math.inf`` entries are normalized away at construction.
    """

    n: int
    crash_times: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned: Dict[int, float] = {}
        for pid, t in self.crash_times.items():
            if not 0 <= pid < self.n:
                raise ValueError(f"pid {pid} out of range for n={self.n}")
            if t < 0:
                raise ValueError(f"negative crash time {t} for pid {pid}")
            if math.isfinite(t):
                cleaned[pid] = float(t)
        if len(cleaned) >= self.n:
            raise ValueError("at least one process must be correct (t <= n-1)")
        object.__setattr__(self, "crash_times", cleaned)

    # ------------------------------------------------------------------
    def crash_time(self, pid: int) -> float:
        """Crash time of ``pid`` (``inf`` if correct)."""
        return self.crash_times.get(pid, math.inf)

    def is_correct(self, pid: int) -> bool:
        """True iff ``pid`` never crashes in this plan."""
        return pid not in self.crash_times

    @property
    def correct(self) -> FrozenSet[int]:
        """The set of correct processes."""
        return frozenset(p for p in range(self.n) if p not in self.crash_times)

    def until(self, horizon: float) -> "CrashPlan":
        """The crashes that happen in a run ending at ``horizon``: a
        crash planned beyond it never happens, so its pid is correct."""
        return CrashPlan(self.n, {p: t for p, t in self.crash_times.items() if t <= horizon})

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @staticmethod
    def none(n: int) -> "CrashPlan":
        """Fault-free plan."""
        return CrashPlan(n, {})

    @staticmethod
    def single(n: int, pid: int, at: float) -> "CrashPlan":
        """Crash one process at a given time."""
        return CrashPlan(n, {pid: at})

    @staticmethod
    def all_but(n: int, survivor: int, at: float, spacing: float = 0.0) -> "CrashPlan":
        """Crash every process except ``survivor`` (t = n-1 stress).

        Crashes are staggered by ``spacing`` in pid order.
        """
        times: Dict[int, float] = {}
        k = 0
        for pid in range(n):
            if pid == survivor:
                continue
            times[pid] = at + k * spacing
            k += 1
        return CrashPlan(n, times)

    @staticmethod
    def cascade(n: int, pids: Iterable[int], start: float, spacing: float) -> "CrashPlan":
        """Crash the given pids one after another, ``spacing`` apart."""
        times = {pid: start + i * spacing for i, pid in enumerate(pids)}
        return CrashPlan(n, times)

    @staticmethod
    def leader_storms(
        n: int,
        crashes: int,
        start: float,
        gap: float,
        burst: int = 2,
        spacing: float = 1.0,
    ) -> "CrashPlan":
        """Targeted-leader crash storms.

        Both algorithms favour the lexmin candidate, i.e. the
        lowest-numbered live process, so the adversary that repeatedly
        kills *the process about to be elected* crashes pids in
        ascending order -- but in tight **bursts** of up to ``burst``
        crashes ``spacing`` apart, with ``gap`` between storms.  Each
        storm lands just as the previous re-election settles, forcing a
        fresh one.  ``crashes`` may go up to ``n - 1``.
        """
        if crashes >= n:
            raise ValueError(f"can crash at most n-1={n - 1} processes, got {crashes}")
        if burst <= 0 or gap <= 0 or spacing < 0:
            raise ValueError("burst must be positive, gap positive, spacing non-negative")
        times: Dict[int, float] = {}
        for idx in range(crashes):
            storm, slot = divmod(idx, burst)
            times[idx] = start + storm * gap + slot * spacing
        return CrashPlan(n, times)

    @staticmethod
    def random(
        n: int,
        rng: RngRegistry,
        max_failures: Optional[int] = None,
        horizon: float = 1000.0,
        probability: float = 0.3,
    ) -> "CrashPlan":
        """Randomly crash up to ``max_failures`` (default ``n - 1``) processes.

        Each process independently crashes with ``probability`` at a
        uniform time in ``[0, horizon]``; excess crashes beyond the cap
        are dropped deterministically (latest-first survive).
        """
        cap = n - 1 if max_failures is None else min(max_failures, n - 1)
        stream = rng.stream("crash-plan")
        times: Dict[int, float] = {}
        for pid in range(n):
            if stream.random() < probability:
                times[pid] = stream.uniform(0.0, horizon)
        while len(times) > cap:
            # Drop the latest crash: it perturbs the run least.
            latest = max(times, key=lambda p: (times[p], p))
            del times[latest]
        return CrashPlan(n, times)


__all__ = ["CrashPlan"]
