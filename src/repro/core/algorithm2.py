"""Algorithm 2 (paper Figure 5): Omega with bounded shared memory.

The unbounded ``PROGRESS[n]`` array of Algorithm 1 and the local
``last_i[n]`` arrays are replaced by two boolean matrices implementing a
per-pair *hand-shake*:

* ``PROGRESS[n][n]`` -- booleans; entry ``(i, k)`` owned by ``p_i``.
  ``p_i`` signals ``p_k`` it is alive by making ``PROGRESS[i][k]``
  *differ* from ``LAST[i][k]`` (line 8.R2: ``PROGRESS[i][k] <-
  not LAST[i][k]``; the original PDF's negation glyph is lost in the
  text extraction, but the hand-shake semantics in Section 4.2 -- raise
  a signal, partner cancels it -- force it).
* ``LAST[n][n]`` -- booleans; entry ``(i, k)`` owned by ``p_k`` (the
  *column* process -- the partner, not the row process).  ``p_k``
  acknowledges by copying: ``LAST[i][k] <- PROGRESS[i][k]``.

``SUSPICIONS`` and ``STOP`` are exactly as in Algorithm 1.  A signal
from ``p_i`` to ``p_k`` is *pending* iff ``PROGRESS[i][k] !=
LAST[i][k]``; the test at line 17.R1 is that inequality.

Every shared variable is bounded (Theorem 6: booleans, plus the
Theorem 2 argument for ``SUSPICIONS``), and after stabilization only
``PROGRESS[ell][i]`` (written by the leader) and ``LAST[ell][i]``
(written by each ``p_i``) are still written (Theorem 7) -- the price
Theorem 5 proves unavoidable: with bounded memory, *all* correct
processes keep writing forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.algorithm1 import LeastSuspectedOmega, MatrixReads, array_reads, matrix_reads
from repro.core.interfaces import AlgorithmContext, ReadReg, SetTimer, Task, WriteReg
from repro.memory.arrays import RegisterArray, RegisterMatrix
from repro.memory.memory import SharedMemory


@dataclass
class Algorithm2Shared:
    """Shared-register layout of Algorithm 2, with one prebuilt
    ``ReadReg`` per register (as :class:`Algorithm1Shared`)."""

    suspicions: RegisterMatrix  # SUSPICIONS[n][n], row-owned, non-critical
    progress: RegisterMatrix  # PROGRESS[n][n] booleans, row-owned, critical
    last: RegisterMatrix  # LAST[n][n] booleans, COLUMN-owned, non-critical
    stop: RegisterArray  # STOP[n] booleans, self-owned, critical
    n: int
    suspicion_columns: MatrixReads = field(init=False, repr=False)  # [k][j] reads SUSPICIONS[j][k]
    progress_reads: MatrixReads = field(init=False, repr=False)
    last_reads: MatrixReads = field(init=False, repr=False)
    stop_reads: Tuple[ReadReg, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.suspicion_columns = tuple(zip(*matrix_reads(self.suspicions)))
        self.progress_reads = matrix_reads(self.progress)
        self.last_reads = matrix_reads(self.last)
        self.stop_reads = array_reads(self.stop)


class BoundedOmega(LeastSuspectedOmega):
    """Per-process instance of the Figure 5 algorithm.

    Task T1 (lines 1-5) is unchanged from Algorithm 1, so it is
    inherited from :class:`~repro.core.algorithm1.LeastSuspectedOmega`.
    """

    display_name = "alg2-bounded"
    uses_timer = True
    requires_assumption = "awb"
    # Theorems 3/4 are deliberately traded away: bounded memory forces
    # every correct process to write forever (Theorem 5 / Corollary 1).
    claimed_theorems = frozenset({1, 2})

    def __init__(self, ctx: AlgorithmContext, shared: Algorithm2Shared) -> None:
        super().__init__(ctx, shared)
        i, n = self.pid, self.n
        # Local copies of owned registers (Section 3.2 remark):
        # row i of PROGRESS, column i of LAST, STOP[i] (and, in the
        # base class, row i of SUSPICIONS).
        self._my_progress: List[bool] = [bool(shared.progress.peek(i, k)) for k in range(n)]
        self._my_last: List[bool] = [bool(shared.last.peek(k, i)) for k in range(n)]
        self._my_stop: bool = bool(shared.stop.peek(i))

    # ------------------------------------------------------------------
    @classmethod
    def create_shared(cls, memory: SharedMemory, n: int, config: Dict[str, Any]) -> Algorithm2Shared:
        """Lay out Figure 5's registers: ``SUSPICIONS``, the boolean
        ``PROGRESS``/``LAST`` hand-shake matrices and ``STOP``."""
        return Algorithm2Shared(
            suspicions=memory.create_matrix("SUSPICIONS", n, initial=0, critical=False),
            progress=memory.create_matrix("PROGRESS", n, initial=False, critical=True),
            last=memory.create_matrix(
                "LAST", n, initial=False, critical=False, owner_of=lambda row, col: col
            ),
            stop=memory.create_array("STOP", n, initial=True, critical=True),
            n=n,
        )

    # ------------------------------------------------------------------
    # Task T2 -- main loop (lines 6-12 with 8.R1-8.R3)
    # ------------------------------------------------------------------
    def main_task(self) -> Task:
        """Task T2 (lines 6-12 with 8.R1-8.R3): while leader, raise the
        boolean hand-shake flag toward every follower."""
        i = self.pid
        while True:  # line 6
            ld = yield from self._leader_query()
            while ld == i:  # line 7
                for k in range(self.n):  # line 8.R1
                    if k == i:
                        continue
                    last_ik = yield self.shared.last_reads[i][k]  # owned by p_k
                    raised = not bool(last_ik)
                    self._my_progress[k] = raised
                    yield WriteReg(self.shared.progress.register(i, k), raised)  # line 8.R2
                if self._my_stop:  # line 9
                    self._my_stop = False
                    yield WriteReg(self.shared.stop.register(i), False)
                ld = yield from self._leader_query()
            if not self._my_stop:  # line 11
                self._my_stop = True
                yield WriteReg(self.shared.stop.register(i), True)

    # ------------------------------------------------------------------
    # Task T3 -- timer handler (lines 13-27 with 16.R1/17.R1/19.R1)
    # ------------------------------------------------------------------
    def timer_task(self) -> Task:
        """Task T3 (lines 13-27 with 16.R1/17.R1/19.R1): acknowledge
        pending hand-shake signals, suspect the silent candidates."""
        i, n = self.pid, self.n
        for k in range(n):  # line 14
            if k == i:
                continue
            stop_k = yield self.shared.stop_reads[k]  # line 15
            progress_k = yield self.shared.progress_reads[k][i]  # line 16.R1
            progress_k = bool(progress_k)
            if progress_k != self._my_last[k]:  # line 17.R1: pending signal?
                self.candidates.add(k)  # line 18
                self._my_last[k] = progress_k
                yield WriteReg(self.shared.last.register(k, i), progress_k)  # line 19.R1
            elif stop_k:  # line 20
                self.candidates.discard(k)  # line 21
            elif k in self.candidates:  # line 22
                self._my_suspicions[k] += 1
                yield WriteReg(self.shared.suspicions.register(i, k), self._my_suspicions[k])  # line 23
                self.candidates.discard(k)  # line 24
        yield SetTimer(self._next_timeout())  # line 27

    def _next_timeout(self) -> float:
        """Line 27: ``max_k SUSPICIONS[i][k] + 1`` from local copies."""
        return float(max(self._my_suspicions) + 1)

    def initial_timeout(self) -> Optional[float]:
        """First timer arming, by the same line-27 rule."""
        return self._next_timeout()


__all__ = ["Algorithm2Shared", "BoundedOmega"]
