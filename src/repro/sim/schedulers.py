"""Step-delay models: how asynchrony (and assumption AWB1) is realized.

In the paper's model a process executes a sequence of *steps* (one
shared-memory access or local operation per step) with arbitrary finite
delays between consecutive steps.  A *step-delay model* is a function
``delay(pid, now) -> float`` giving the delay the scheduler inserts
after a process's current step.

Assumption **AWB1** -- "there are a time tau_1, a bound beta and a
correct process p_ell such that after tau_1 any two consecutive
accesses by p_ell to its critical registers complete within beta" --
is realized by :class:`PartiallySynchronousDelay`: after its ``gst``
(global stabilization time, the model's tau_1) the designated process's
per-step delays fall inside a bounded interval.  Since the algorithms
execute a bounded number of steps between consecutive critical-register
accesses, this bounds the critical-access gap, i.e. yields the paper's
beta.  All other processes may remain arbitrarily asynchronous.

**Inline-draw rule.**  A uniform draw in ``[lo, hi]`` is written out
as ``lo + (hi - lo) * stream.random()``, the body of CPython's
``random.Random.uniform``: one call fewer per step, and every float and
every per-pid stream's draw order stay bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Protocol, Sequence

from repro.sim.rng import RngRegistry


class StepDelayModel(Protocol):
    """Protocol for per-step scheduling delays."""

    def delay(self, pid: int, now: float) -> float:
        """Return the delay inserted after the step ``pid`` takes at ``now``."""
        ...


@dataclass
class FixedDelay:
    """Every step of every process takes exactly ``step`` time units.

    This is the fully synchronous special case -- useful as a control in
    experiments and for making hand-computed traces in unit tests.
    """

    step: float = 1.0

    def delay(self, pid: int, now: float) -> float:
        """The fixed step duration (rejects a non-positive config)."""
        if self.step <= 0:
            raise ValueError("step delay must be positive")
        return self.step


class UniformDelay:
    """Steps take a uniformly random time in ``[lo, hi]`` per process.

    Each process draws from its own named stream so schedules of
    different processes are independent yet reproducible.
    """

    def __init__(self, rng: RngRegistry, lo: float = 0.5, hi: float = 1.5) -> None:
        if not (0 < lo <= hi):
            raise ValueError(f"need 0 < lo <= hi, got lo={lo}, hi={hi}")
        self.lo = lo
        self.hi = hi
        self._streams = rng.per_pid("delay")

    def delay(self, pid: int, now: float) -> float:
        """A uniform draw in ``[lo, hi]`` from the pid's stream."""
        return self.lo + (self.hi - self.lo) * self._streams[pid].random()


class HeavyTailDelay:
    """Pareto-tailed step delays: mostly fast, occasionally very slow.

    Models the "arbitrary but finite" delays of a genuinely asynchronous
    process: there is no bound that holds for all steps, but every delay
    is finite.  ``cap`` bounds the tail so simulated runs still converge
    within their horizon (delays stay *finite* either way; the cap only
    controls experiment duration, not the asynchrony semantics).
    """

    def __init__(
        self,
        rng: RngRegistry,
        scale: float = 0.5,
        shape: float = 1.3,
        cap: float = 200.0,
    ) -> None:
        if scale <= 0 or shape <= 0 or cap <= 0:
            raise ValueError("scale, shape and cap must be positive")
        self.scale = scale
        self.shape = shape
        self.cap = cap
        self._streams = rng.per_pid("delay")

    def delay(self, pid: int, now: float) -> float:
        """A capped Pareto draw: mostly fast, occasionally very slow."""
        u = self._streams[pid].random()
        # Inverse-CDF sample of a Pareto(shape) scaled by `scale`.
        raw = self.scale / max(1e-12, (1.0 - u)) ** (1.0 / self.shape)
        return min(raw, self.cap)


class PartiallySynchronousDelay:
    """AWB1: the designated process becomes timely after ``gst``.

    Parameters
    ----------
    base:
        Model used for every process before ``gst`` and for
        non-designated processes forever (the "fully asynchronous" part
        of AWB: nobody but ``p_ell`` is required to be timely).
    timely_pids:
        Processes whose speed is lower-bounded after ``gst`` -- usually a
        single pid, the paper's ``p_ell``.
    gst:
        The stabilization time tau_1.
    timely_lo / timely_hi:
        Per-step delay bounds for timely processes after ``gst``.  The
        induced bound beta on consecutive critical accesses is
        ``timely_hi * (steps between critical accesses)``, which the
        algorithms keep constant.
    """

    def __init__(
        self,
        base: StepDelayModel,
        timely_pids: Iterable[int],
        gst: float,
        rng: RngRegistry,
        timely_lo: float = 0.5,
        timely_hi: float = 1.0,
    ) -> None:
        if not (0 < timely_lo <= timely_hi):
            raise ValueError("need 0 < timely_lo <= timely_hi")
        if gst < 0:
            raise ValueError("gst must be non-negative")
        self.base = base
        self.timely_pids = frozenset(timely_pids)
        self.gst = gst
        self.timely_lo = timely_lo
        self.timely_hi = timely_hi
        self._streams = rng.per_pid("timely")

    def delay(self, pid: int, now: float) -> float:
        """Timely band for designated pids after gst; ``base`` otherwise."""
        if pid in self.timely_pids and now >= self.gst:
            return self.timely_lo + (self.timely_hi - self.timely_lo) * self._streams[pid].random()
        return self.base.delay(pid, now)


@dataclass(frozen=True)
class StallWindow:
    """A scheduling stall: ``pid`` takes no step inside ``[start, end)``."""

    pid: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("stall window must have positive length")


class AdversarialStallDelay:
    """Wrap a model and inject long, targeted stalls.

    The adversary used by the lower-bound experiments (paper Section 4.1,
    Figure 4): chosen processes are frozen over chosen windows, which is
    legal behaviour for an asynchronous process.  A stalled process's
    next step is pushed to the end of the stall window.
    """

    def __init__(self, base: StepDelayModel, stalls: Sequence[StallWindow]) -> None:
        self.base = base
        self.stalls = sorted(stalls, key=lambda s: (s.pid, s.start))

    def delay(self, pid: int, now: float) -> float:
        """The base delay, pushed past any stall window it lands in."""
        d = self.base.delay(pid, now)
        wake = now + d
        for stall in self.stalls:
            if stall.pid == pid and stall.start <= wake < stall.end:
                wake = stall.end
        return wake - now


class GstRampDelay:
    """A GST *ramp*: asynchrony decays linearly toward ``gst``.

    Instead of the sharp before/after cut of
    :class:`PartiallySynchronousDelay`, per-step delays start inflated
    by ``start_scale`` and shrink linearly until, at ``gst``, every
    process (or only ``timely_pids`` when given) draws from the timely
    band ``[lo, hi]`` forever.  Satisfies AWB1 by construction -- the
    adversarial content is the long, slowly improving prefix, which
    feeds the timers a moving target of false-suspicion intervals.
    """

    def __init__(
        self,
        rng: RngRegistry,
        gst: float,
        start_scale: float = 8.0,
        lo: float = 0.5,
        hi: float = 1.5,
        timely_pids: Optional[Iterable[int]] = None,
    ) -> None:
        if gst <= 0:
            raise ValueError("gst must be positive")
        if start_scale < 1.0:
            raise ValueError("start_scale must be >= 1")
        if not (0 < lo <= hi):
            raise ValueError("need 0 < lo <= hi")
        self.gst = gst
        self.start_scale = start_scale
        self.lo, self.hi = lo, hi
        self.timely_pids = None if timely_pids is None else frozenset(timely_pids)
        self._streams = rng.per_pid("delay")

    def delay(self, pid: int, now: float) -> float:
        """A timely draw scaled by the linearly decaying ramp factor."""
        base = self.lo + (self.hi - self.lo) * self._streams[pid].random()
        if self.timely_pids is not None and pid not in self.timely_pids:
            # Non-designated processes stay at the ramp's start forever
            # (they are never required to become timely, so they never
            # enter the ramp either).
            return base * self.start_scale
        if now >= self.gst:
            return base
        remaining = 1.0 - now / self.gst
        return base * (1.0 + (self.start_scale - 1.0) * remaining)


class AlternatingBurstDelay:
    """Alternating asynchrony bursts: calm phases and slow phases cycle.

    Every process alternates between a calm band and a burst band on a
    fixed ``period``; after ``gst`` the processes in ``timely_pids``
    drop out of the cycle and stay calm forever (that is AWB1), while
    everyone else keeps bursting for the whole run -- legal behaviour
    for an asynchronous process, and a hard target for timeout tuning
    because follower speeds never settle.
    """

    def __init__(
        self,
        rng: RngRegistry,
        period: float = 400.0,
        burst_fraction: float = 0.5,
        calm_lo: float = 0.5,
        calm_hi: float = 1.5,
        burst_lo: float = 5.0,
        burst_hi: float = 20.0,
        timely_pids: Iterable[int] = (),
        gst: float = 0.0,
    ) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        if not 0 < burst_fraction < 1:
            raise ValueError("burst_fraction must be in (0, 1)")
        if not (0 < calm_lo <= calm_hi) or not (0 < burst_lo <= burst_hi):
            raise ValueError("need 0 < lo <= hi for both bands")
        self.period = period
        self.burst_fraction = burst_fraction
        self.calm_lo, self.calm_hi = calm_lo, calm_hi
        self.burst_lo, self.burst_hi = burst_lo, burst_hi
        self.timely_pids = frozenset(timely_pids)
        self.gst = gst
        self._streams = rng.per_pid("delay")

    def delay(self, pid: int, now: float) -> float:
        """Calm- or burst-band draw by cycle phase (timely pids exit at gst)."""
        stream = self._streams[pid]
        if pid in self.timely_pids and now >= self.gst:
            return self.calm_lo + (self.calm_hi - self.calm_lo) * stream.random()
        phase = (now % self.period) / self.period
        if phase < 1.0 - self.burst_fraction:
            return self.calm_lo + (self.calm_hi - self.calm_lo) * stream.random()
        return self.burst_lo + (self.burst_hi - self.burst_lo) * stream.random()


class ChurningTimelyDelay:
    """AWB1 with source churn: *which* process is timely keeps changing.

    Before ``settle_at`` the timely identity rotates through
    ``candidates`` every ``epoch`` time units (everyone else follows
    ``base``); from ``settle_at`` on, ``final_pid`` is timely forever.
    The churning prefix is the shared-memory analogue of *source-set
    churn* under the eventual t-source assumption of Aguilera et al.
    (whose settled form is
    :class:`repro.netsim.network.EventuallyTimelyLinks`): assumptions that
    only eventually pick their witness must tolerate arbitrarily long
    periods where the witness moves.
    """

    def __init__(
        self,
        base: StepDelayModel,
        candidates: Sequence[int],
        epoch: float,
        settle_at: float,
        final_pid: int,
        rng: RngRegistry,
        timely_lo: float = 0.5,
        timely_hi: float = 1.0,
    ) -> None:
        if not candidates:
            raise ValueError("need at least one candidate")
        if epoch <= 0 or settle_at < 0:
            raise ValueError("epoch must be positive and settle_at non-negative")
        if not (0 < timely_lo <= timely_hi):
            raise ValueError("need 0 < timely_lo <= timely_hi")
        self.base = base
        self.candidates = list(candidates)
        self.epoch = epoch
        self.settle_at = settle_at
        self.final_pid = final_pid
        self.timely_lo, self.timely_hi = timely_lo, timely_hi
        self._streams = rng.per_pid("timely")

    def timely_at(self, now: float) -> int:
        """The identity that is timely at virtual time ``now``."""
        if now >= self.settle_at:
            return self.final_pid
        return self.candidates[int(now // self.epoch) % len(self.candidates)]

    def delay(self, pid: int, now: float) -> float:
        """Timely band for the epoch's rotating witness; ``base`` otherwise."""
        if pid == self.timely_at(now):
            return self.timely_lo + (self.timely_hi - self.timely_lo) * self._streams[pid].random()
        return self.base.delay(pid, now)


__all__ = [
    "AdversarialStallDelay",
    "AlternatingBurstDelay",
    "ChurningTimelyDelay",
    "FixedDelay",
    "GstRampDelay",
    "HeavyTailDelay",
    "PartiallySynchronousDelay",
    "StallWindow",
    "StepDelayModel",
    "UniformDelay",
]
