"""Lower-bound mutants: Lemmas 5 and 6 as falsification experiments.

The paper's lower bounds are indistinguishability proofs over *any*
algorithm; an implementation cannot re-prove them, but it can exhibit
exactly the failure the proofs predict:

* **Lemma 5** -- the elected leader must write forever.
  :class:`MutedLeaderOmega` is Algorithm 1 whose designated process
  silently *stops writing* ``PROGRESS`` (and everything else) after a
  chosen time while still believing it leads.  The proof's run ``R'``
  (where the leader crashed instead) is indistinguishable to everyone
  else, so the followers eventually suspect and elect someone new --
  the mutant run loses Eventual Leadership exactly as predicted.

* **Lemma 6** -- every other correct process must read forever.
  :class:`BlindProcessOmega` makes one follower *stop reading* after a
  chosen time (it keeps answering ``leader()`` from stale local data).
  Crash the leader after that moment: the blind process keeps
  outputting the dead leader forever while the rest move on --
  violating Eventual Leadership, as the proof's indistinguishability
  argument demands.

Mutants consult the virtual clock, which real algorithms must not do --
they are adversarial test fixtures, not algorithms.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.algorithm1 import WriteEfficientOmega
from repro.core.interfaces import LocalStep, SetTimer, Task, WriteReg


class MutedLeaderOmega(WriteEfficientOmega):
    """Algorithm 1, but the configured pid stops all writes after
    ``mute_after`` (config keys ``muted_pid``, ``mute_after``).

    The muted process keeps *executing* (it still evaluates
    ``leader()``, still reads) -- it only suppresses its writes, which
    is the precise behaviour Lemma 5's contradiction hypothesizes.
    """

    display_name = "mutant-muted-leader"

    @property
    def _muted(self) -> bool:
        return (
            self.pid == self.ctx.config.get("muted_pid", 0)
            and self.ctx.clock() >= self.ctx.config.get("mute_after", 0.0)
        )

    def main_task(self) -> Task:
        """Algorithm 1's T2, except the muted pid stops writing
        ``PROGRESS``/``STOP`` after ``mute_after`` (the injected fault)."""
        i = self.pid
        while True:
            ld = yield from self._leader_query()
            while ld == i:
                if self._muted:
                    yield LocalStep()  # the write "happens" locally only
                else:
                    self._my_progress += 1
                    yield WriteReg(self.shared.progress.register(i), self._my_progress)
                    if self._my_stop:
                        self._my_stop = False
                        yield WriteReg(self.shared.stop.register(i), False)
                ld = yield from self._leader_query()
            if not self._my_stop and not self._muted:
                self._my_stop = True
                yield WriteReg(self.shared.stop.register(i), True)

    def timer_task(self) -> Task:
        """Algorithm 1's T3, but the muted pid never writes suspicions."""
        if not self._muted:
            yield from super().timer_task()
            return
        # Muted: perform the checks but never write a suspicion.
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
                self.candidates.discard(k)  # suspicion not published
        yield SetTimer(self._next_timeout())


class BlindProcessOmega(WriteEfficientOmega):
    """Algorithm 1, but the configured pid stops reading shared memory
    after ``blind_after`` (config keys ``blind_pid``, ``blind_after``).

    While blind, ``leader()`` is answered from the last suspicion
    values the process read, and the monitoring task burns local steps
    instead of reads -- so a leader crash after ``blind_after`` is
    invisible to it, exactly Lemma 6's scenario.
    """

    display_name = "mutant-blind-process"

    def __init__(self, ctx: Any, shared: Any) -> None:
        super().__init__(ctx, shared)
        # Cache of the last full suspicion sums this process computed.
        self._cached_susp: dict[int, int] = {k: 0 for k in range(self.n)}
        self._cached_leader: Optional[int] = None

    @property
    def _blind(self) -> bool:
        return (
            self.pid == self.ctx.config.get("blind_pid", 1)
            and self.ctx.clock() >= self.ctx.config.get("blind_after", 0.0)
        )

    def _leader_query(self) -> Task:
        if not self._blind:
            leader = yield from super()._leader_query()
            self._cached_leader = leader
            return leader
        yield LocalStep()  # an invocation still takes a step
        self._note_leader_invocation(0)
        if self._cached_leader is not None:
            return self._cached_leader
        return self.pid

    def timer_task(self) -> Task:
        """Algorithm 1's T3 until blindness strikes; read-free after."""
        if not self._blind:
            yield from super().timer_task()
            return
        # Blind: no reads; just burn a step per peer and re-arm.
        for k in range(self.n):
            if k != self.pid:
                yield LocalStep()
        yield SetTimer(self._next_timeout())

    def peek_leader(self) -> int:
        """The frozen pre-blindness answer once blind, else live."""
        if self._blind and self._cached_leader is not None:
            return self._cached_leader
        leader = super().peek_leader()
        self._cached_leader = leader
        return leader


__all__ = ["BlindProcessOmega", "MutedLeaderOmega"]
