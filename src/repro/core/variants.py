"""Section 3.5 variants of Algorithm 1.

Two refinements the paper sketches in prose:

* **nWnR registers** (:class:`MultiWriterOmega`): "each column
  ``SUSPICIONS[.][j]`` can be replaced by a single ``SUSPICIONS[j]``",
  so the ``n x n`` matrix becomes a length-``n`` vector of multi-writer
  counters and ``leader()`` reads ``|candidates|`` registers instead of
  ``n * |candidates|``.
* **No local clocks** (:class:`StepCounterOmega`): the timer is
  replaced by a counting loop in which each decrement "takes at least
  one time unit" -- satisfied here because every scheduled step has a
  positive delay.  Task ``T3``'s body is folded into the perpetual
  counting task exactly as the paper's replacement code shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set

from repro.core.interfaces import (
    AlgorithmContext,
    FetchAdd,
    LocalStep,
    OmegaAlgorithm,
    ReadReg,
    SetTimer,
    Task,
    WriteReg,
)
from repro.core.algorithm1 import WriteEfficientOmega
from repro.core.lexmin import lexmin_pair
from repro.memory.arrays import RegisterArray
from repro.memory.memory import SharedMemory
from repro.memory.mwmr import MultiWriterRegister


@dataclass
class MultiWriterShared:
    """Shared layout of the nWnR variant."""

    suspicions: List[MultiWriterRegister]  # SUSPICIONS[n], any writer
    progress: RegisterArray  # PROGRESS[n], self-owned, critical
    stop: RegisterArray  # STOP[n], self-owned, critical
    n: int


class MultiWriterOmega(OmegaAlgorithm):
    """Algorithm 1 over a multi-writer suspicion *vector*.

    Config keys:

    ``atomic_increment`` (default ``True``)
        Use the atomic ``fetch&add`` primitive.  When ``False`` the
        increment is the racy two-step read-then-write that plain nWnR
        read/write registers give; concurrent increments may be lost.
        Lost increments only slow suspicion growth (they never inflate
        the AWB1 process's count), so the election still stabilizes --
        a scenario covered by tests.

    Deviation note: the paper's line 27 timeout reads only registers the
    process owns.  With a shared vector there is no owned row, so the
    timeout is ``max + 1`` over the suspicion values this process has
    most recently *seen* (reads it performs anyway).  Seen values grow
    whenever true suspicions grow, which is all Lemma 2's argument
    needs.
    """

    display_name = "alg1-nwnr"
    uses_timer = True
    requires_assumption = "awb"
    claimed_theorems = frozenset({1, 2, 3, 4})

    def __init__(self, ctx: AlgorithmContext, shared: MultiWriterShared) -> None:
        super().__init__(ctx, shared)
        n = self.n
        initial = ctx.config.get("initial_candidates")
        self.candidates: Set[int] = set(initial) | {self.pid} if initial is not None else set(range(n))
        self.last: List[Optional[int]] = [None] * n
        self.atomic_increment: bool = bool(ctx.config.get("atomic_increment", True))
        self._my_progress: int = shared.progress.peek(self.pid)
        self._my_stop: bool = bool(shared.stop.peek(self.pid))
        self._seen_susp: List[int] = [int(reg.peek()) for reg in shared.suspicions]

    @classmethod
    def create_shared(cls, memory: SharedMemory, n: int, config: Dict[str, Any]) -> MultiWriterShared:
        """Lay out the nWnR variant: one multi-writer ``SUSPICIONS[k]``
        counter per candidate instead of the n x n 1WnR matrix."""
        return MultiWriterShared(
            suspicions=[memory.create_mwmr(f"SUSPICIONS[{k}]", initial=0) for k in range(n)],
            progress=memory.create_array("PROGRESS", n, initial=0, critical=True),
            stop=memory.create_array("STOP", n, initial=True, critical=True),
            n=n,
        )

    # ------------------------------------------------------------------
    def _leader_query(self) -> Task:
        ops = 0
        susp: Dict[int, int] = {}
        for k in sorted(self.candidates):
            value = yield ReadReg(self.shared.suspicions[k])
            ops += 1
            self._seen_susp[k] = value
            susp[k] = value
        _, leader = lexmin_pair((susp[k], k) for k in susp)
        self._note_leader_invocation(ops)
        return leader

    def leader_query(self):
        """Public task ``T1`` (see :class:`OmegaAlgorithm.leader_query`)."""
        return self._leader_query()

    def main_task(self) -> Task:
        """Task T2, unchanged from Algorithm 1 (only T1/T3 differ)."""
        i = self.pid
        while True:
            ld = yield from self._leader_query()
            while ld == i:
                self._my_progress += 1
                yield WriteReg(self.shared.progress.register(i), self._my_progress)
                if self._my_stop:
                    self._my_stop = False
                    yield WriteReg(self.shared.stop.register(i), False)
                ld = yield from self._leader_query()
            if not self._my_stop:
                self._my_stop = True
                yield WriteReg(self.shared.stop.register(i), True)

    def timer_task(self) -> Task:
        """Task T3 with suspicion bumps via ``fetch&add`` on the shared
        counters (or the racy read-then-write under the ablation knob)."""
        i, n = self.pid, self.n
        for k in range(n):
            if k == i:
                continue
            stop_k = yield ReadReg(self.shared.stop.register(k))
            progress_k = yield ReadReg(self.shared.progress.register(k))
            if progress_k != self.last[k]:
                self.candidates.add(k)
                self.last[k] = progress_k
            elif stop_k:
                self.candidates.discard(k)
            elif k in self.candidates:
                if self.atomic_increment:
                    old = yield FetchAdd(self.shared.suspicions[k], 1)
                    self._seen_susp[k] = old + 1
                else:
                    current = yield ReadReg(self.shared.suspicions[k])
                    yield WriteReg(self.shared.suspicions[k], current + 1)
                    self._seen_susp[k] = current + 1
                self.candidates.discard(k)
        yield SetTimer(self._next_timeout())

    def _next_timeout(self) -> float:
        """Line 27's rule over the last-seen shared counter values."""
        return float(max(self._seen_susp) + 1)

    def initial_timeout(self) -> Optional[float]:
        """First timer arming, by the same line-27 rule."""
        return self._next_timeout()

    def peek_leader(self) -> int:
        """Uncounted ``leader()`` on the current counter values."""
        pairs = [(int(self.shared.suspicions[k].peek()), k) for k in sorted(self.candidates)]
        return lexmin_pair(pairs)[1]


class StepCounterOmega(WriteEfficientOmega):
    """Timer-free Algorithm 1 (Section 3.5, "Eliminating the local clocks").

    Task ``T3`` becomes a perpetual counting loop::

        timer_i <- 1
        while true:
            timer_i <- timer_i - 1          # costs >= 1 time unit
            if timer_i = 0:
                <lines 14-26 of Figure 2>
                timer_i <- max_k SUSPICIONS[i][k] + 1

    The ">= one time unit per decrement" premise holds because every
    yielded :class:`LocalStep` is scheduled with the process's positive
    step delay.  The realized "duration" of a countdown from ``x`` is
    then the sum of ``x`` step delays -- asymptotically well-behaved as
    long as step delays do not decay to zero, which no delay model here
    allows.
    """

    display_name = "alg1-step-counter"
    uses_timer = False

    def timer_task(self) -> Optional[Task]:
        """No timer service: T3 lives inside the counting task."""
        return None

    def initial_timeout(self) -> Optional[float]:
        """Never armed -- the variant eliminates the local clocks."""
        return None

    def extra_tasks(self) -> List[Task]:
        """The perpetual countdown task replacing the timer."""
        return [self._counting_task()]

    def _counting_task(self) -> Task:
        countdown = 1.0
        while True:
            yield LocalStep()  # timer_i <- timer_i - 1 (>= 1 time unit)
            countdown -= 1
            if countdown <= 0:
                yield from self._check_body()
                countdown = self._next_timeout()

    def _check_body(self) -> Task:
        """Lines 14-26 of Figure 2 (identical to the timer handler, sans
        the final SetTimer)."""
        i, n = self.pid, self.n
        for k in range(n):
            if k == i:
                continue
            stop_k = yield self.shared.stop_reads[k]
            progress_k = yield self.shared.progress_reads[k]
            if progress_k != self.last[k]:
                self.candidates.add(k)
                self.last[k] = progress_k
            elif stop_k:
                self.candidates.discard(k)
            elif k in self.candidates:
                self._my_suspicions[k] += 1
                yield WriteReg(self.shared.suspicions.register(i, k), self._my_suspicions[k])
                self.candidates.discard(k)


__all__ = ["MultiWriterOmega", "MultiWriterShared", "StepCounterOmega"]
