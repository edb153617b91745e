"""Timer behaviour models -- the realized duration function ``T_R``.

A :class:`TimerBehavior` decides, when a process sets its timer at time
``tau`` to timeout value ``x``, how long the timer *actually* takes to
expire.  The paper's Figure 1 situation is modelled directly by
:class:`AsymptoticallyWellBehavedTimer`: an arbitrarily misbehaving
prefix (the timer may fire almost immediately regardless of ``x``,
producing the false suspicions the algorithms must absorb), followed by
an era in which the duration always dominates a chosen ``f`` while still
jittering non-monotonically above it.

Every behaviour records its ``(tau, x, duration)`` history so (f3) can
be checked post-run and the Figure 1 series regenerated.  That history
is the one timer record of a run: neither the timer service nor the run
trace keeps another.
"""

from __future__ import annotations

from typing import List, Protocol, Tuple

from repro.sim.rng import RngRegistry
from repro.timers.functions import FFunction


class TimerBehavior(Protocol):
    """Protocol for realized timer durations."""

    def duration(self, pid: int, tau: float, x: float) -> float:
        """Realized duration when ``pid`` sets its timer at ``tau`` to ``x``."""
        ...


class _HistoryMixin:
    """Shared bookkeeping: the realized ``(tau, x, duration)`` samples."""

    def __init__(self) -> None:
        self.history: List[Tuple[float, float, float]] = []

    def _remember(self, tau: float, x: float, d: float) -> float:
        self.history.append((tau, x, d))
        return d


class AccurateTimer(_HistoryMixin):
    """The ideal timer: duration equals the timeout value exactly.

    Satisfies AWB2 with ``f(tau, x) = x`` trivially.  Used as a control
    and in unit tests where hand-computed schedules are needed.
    """

    def duration(self, pid: int, tau: float, x: float) -> float:
        """Exactly the requested timeout ``x``."""
        return self._remember(tau, x, max(x, 1e-9))


class AsymptoticallyWellBehavedTimer(_HistoryMixin):
    """The paper's AWB2 timer.

    Parameters
    ----------
    f:
        The dominated lower-bound function (must satisfy f1 + f2).
    rng:
        Randomness source (per-pid streams).
    chaos_until:
        The model's ``tau_f``: timers set before this instant may
        realize *any* duration in ``[chaos_lo, chaos_hi]`` independent
        of ``x`` -- in particular far too short, triggering false
        suspicions.
    chaos_lo / chaos_hi:
        Range of chaotic durations.
    jitter:
        After ``chaos_until`` the duration is
        ``f(tau, x) * (1 + U[0, jitter])`` -- above ``f`` but not
        monotone in ``x``, matching Figure 1's wiggly ``T_R``.
    """

    def __init__(
        self,
        f: FFunction,
        rng: RngRegistry,
        chaos_until: float = 200.0,
        chaos_lo: float = 0.05,
        chaos_hi: float = 2.0,
        jitter: float = 0.5,
    ) -> None:
        super().__init__()
        if not (0 < chaos_lo <= chaos_hi):
            raise ValueError("need 0 < chaos_lo <= chaos_hi")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self.f = f
        self.chaos_until = chaos_until
        self.chaos_lo = chaos_lo
        self.chaos_hi = chaos_hi
        self.jitter = jitter
        self._streams = rng.per_pid("timer")

    def duration(self, pid: int, tau: float, x: float) -> float:
        """Arbitrary during the chaos era; ``f(tau, x)`` plus jitter after."""
        stream = self._streams[pid]
        if tau < self.chaos_until:
            d = stream.uniform(self.chaos_lo, self.chaos_hi)
        else:
            base = max(self.f(tau, x), 1e-9)
            d = base * (1.0 + stream.uniform(0.0, self.jitter))
        return self._remember(tau, x, d)


class CappedTimer(_HistoryMixin):
    """VIOLATOR of AWB2: the duration never exceeds ``cap``.

    No divergent ``f`` can be dominated, so a process using this timer
    may keep falsely suspecting a slow-but-timely leader forever.  The
    negative tests use it to show AWB2 is *load-bearing*: with capped
    timers on every follower and a leader period above the cap, the
    election never stabilizes.
    """

    def __init__(self, rng: RngRegistry, cap: float = 3.0, lo: float = 0.05) -> None:
        super().__init__()
        if not (0 < lo <= cap):
            raise ValueError("need 0 < lo <= cap")
        self.cap = cap
        self.lo = lo
        self._streams = rng.per_pid("timer")

    def duration(self, pid: int, tau: float, x: float) -> float:
        """Never exceeds ``cap``, whatever ``x`` asks (violates AWB2)."""
        stream = self._streams[pid]
        d = min(max(x, self.lo), self.cap) * stream.uniform(0.5, 1.0)
        return self._remember(tau, x, max(d, self.lo))


__all__ = [
    "AccurateTimer",
    "AsymptoticallyWellBehavedTimer",
    "CappedTimer",
    "TimerBehavior",
]
