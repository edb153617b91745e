"""Algorithm 1 (paper Figure 2): the write-efficient Omega.

Faithful line-by-line transcription of the paper's Figure 2.  Shared
state (all 1WnR atomic registers):

* ``SUSPICIONS[n][n]`` -- naturals; ``SUSPICIONS[j][k] = x`` means
  ``p_j`` has suspected ``p_k`` ``x`` times.  Row ``j`` owned by
  ``p_j``.  **Not critical** (AWB1 does not constrain accesses to it).
* ``PROGRESS[n]`` -- naturals; ``p_i`` increases ``PROGRESS[i]`` while
  it considers itself leader.  **Critical.**
* ``STOP[n]`` -- booleans; ``p_i`` sets ``STOP[i]`` true when it stops
  competing.  **Critical.**

Per the paper's Section 3.2 remark, a process keeps local copies of the
registers it owns and never issues shared *reads* for them -- only the
writes hit shared memory.  The task structure is:

* ``T1`` (``leader()``): return the least-suspected candidate
  (lines 1-5), as the ``_leader_query`` sub-generator of
  :class:`LeastSuspectedOmega`, which Algorithm 2 shares;
* ``T2``: the repeat-forever loop (lines 6-12), :meth:`main_task`;
* ``T3``: the timer handler (lines 13-27), :meth:`timer_task`.

Properties proved in the paper and checked by this repo's tests and
benches: eventual common correct leader (Theorem 1); all shared
variables except ``PROGRESS[ell]`` bounded (Theorem 2); eventually a
single writer, always writing the same variable (Theorem 3);
write-optimality (Theorem 4 via Lemmas 5-6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.interfaces import (
    AlgorithmContext,
    OmegaAlgorithm,
    ReadReg,
    SetTimer,
    Task,
    WriteReg,
)
from repro.core.lexmin import lexmin_pair
from repro.memory.arrays import RegisterArray, RegisterMatrix
from repro.memory.memory import SharedMemory


#: Prebuilt read operations of a register matrix, ``[row][col]``.
MatrixReads = Tuple[Tuple[ReadReg, ...], ...]


def array_reads(array: RegisterArray) -> Tuple[ReadReg, ...]:
    """One prebuilt ``ReadReg`` per entry: ``reads[i]`` reads ``array[i]``."""
    return tuple(ReadReg(array.register(i)) for i in range(len(array)))


def matrix_reads(matrix: RegisterMatrix) -> MatrixReads:
    """One prebuilt ``ReadReg`` per entry: ``reads[row][col]`` reads
    ``matrix[row][col]``."""
    n = matrix.n
    return tuple(tuple(ReadReg(matrix.register(row, col)) for col in range(n)) for row in range(n))


@dataclass
class Algorithm1Shared:
    """Shared-register layout of Algorithm 1.

    Operations are frozen, so each register's ``ReadReg`` is built once
    per run, when :meth:`WriteEfficientOmega.create_shared` lays the
    registers out, and every process yields that same object.
    """

    suspicions: RegisterMatrix  # SUSPICIONS[n][n], row-owned, non-critical
    progress: RegisterArray  # PROGRESS[n], self-owned, critical
    stop: RegisterArray  # STOP[n], self-owned, critical
    n: int
    suspicion_columns: MatrixReads = field(init=False, repr=False)  # [k][j] reads SUSPICIONS[j][k]
    progress_reads: Tuple[ReadReg, ...] = field(init=False, repr=False)
    stop_reads: Tuple[ReadReg, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.suspicion_columns = tuple(zip(*matrix_reads(self.suspicions)))
        self.progress_reads = array_reads(self.progress)
        self.stop_reads = array_reads(self.stop)


class LeastSuspectedOmega(OmegaAlgorithm):
    """Task T1, ``leader()`` (lines 1-5, the same in Figures 2 and 5):
    the least-suspected candidate, ties broken by identity.

    The layout needs ``suspicions`` (the ``SUSPICIONS`` matrix) and
    ``suspicion_columns`` (its prebuilt column reads).  Config keys
    (``ctx.config``):

    ``initial_candidates``
        Initial ``candidates_i`` set; any set containing ``i`` is legal
        (the paper allows any).  Default: all processes.
    """

    def __init__(self, ctx: AlgorithmContext, shared: Any) -> None:
        super().__init__(ctx, shared)
        i, n = self.pid, self.n
        initial = ctx.config.get("initial_candidates")
        #: candidates_i -- must contain i, and p_i never removes itself.
        self.candidates: Set[int] = set(initial) | {i} if initial is not None else set(range(n))
        # Own row of SUSPICIONS as a local copy (Section 3.2 remark) ...
        self._my_suspicions: List[int] = [shared.suspicions.peek(i, k) for k in range(n)]
        # ... so column k is read at SUSPICIONS[j][k] for every j != i.
        self._column_reads = tuple(col[:i] + col[i + 1 :] for col in shared.suspicion_columns)
        # The observer's cache: the column sums and candidates the last
        # peek_leader() answer was computed from, and that answer.
        self._peeked_sums: Optional[List[Any]] = None
        self._peeked_candidates: Set[int] = set()
        self._peeked_leader = i

    def _leader_query(self) -> Task:
        """One ``leader()`` invocation; returns the elected identity.

        Reads ``SUSPICIONS[j][k]`` for every candidate ``k`` and every
        ``j != i`` (own row comes from the local copy).
        """
        reads, mine = self._column_reads, self._my_suspicions
        order = sorted(self.candidates)
        best = None
        for k in order:
            total = mine[k]
            for op in reads[k]:
                total += yield op  # line 3
            # Line 4, lex min folded into the scan (no list, no call).
            if best is None or (total, k) < best:
                best = (total, k)
        self._note_leader_invocation(len(order) * (self.n - 1))
        return best[1]  # line 5

    def leader_query(self):
        """Public task ``T1`` (see :class:`OmegaAlgorithm.leader_query`)."""
        return self._leader_query()

    def peek_leader(self) -> int:
        """Uncounted ``leader()`` evaluated on current register values.

        ``column_sums()`` hands back the same list until a member
        register changes, so while that list and ``candidates`` are
        unchanged the last answer is still the answer.
        """
        sums = self.shared.suspicions.column_sums()
        if sums is self._peeked_sums and self.candidates == self._peeked_candidates:
            return self._peeked_leader
        leader = lexmin_pair([(sums[k], k) for k in self.candidates])[1]
        self._peeked_sums = sums
        self._peeked_candidates = set(self.candidates)
        self._peeked_leader = leader
        return leader


class WriteEfficientOmega(LeastSuspectedOmega):
    """Per-process instance of the Figure 2 algorithm.

    Config keys (``ctx.config``): ``initial_candidates`` (see
    :class:`LeastSuspectedOmega`) and the ``timeout_policy`` ablation.
    """

    display_name = "alg1-write-efficient"
    uses_timer = True
    requires_assumption = "awb"
    claimed_theorems = frozenset({1, 2, 3, 4})

    def __init__(self, ctx: AlgorithmContext, shared: Algorithm1Shared) -> None:
        super().__init__(ctx, shared)
        i, n = self.pid, self.n
        #: Timeout policy (ablation knob; the paper's line 27 is "max"):
        #: "max"   -- max_k SUSPICIONS[i][k] + 1 (the paper's rule)
        #: "sum"   -- sum_k SUSPICIONS[i][k] + 1 (grows faster)
        #: "const" -- a fixed timeout (drops adaptivity; Lemma 2 breaks
        #:            whenever the constant under-shoots the leader's
        #:            write period -- the ablation bench shows it).
        self.timeout_policy: str = ctx.config.get("timeout_policy", "max")
        self.const_timeout: float = float(ctx.config.get("const_timeout", 2.0))
        if self.timeout_policy not in ("max", "sum", "const"):
            raise ValueError(f"unknown timeout_policy {self.timeout_policy!r}")
        #: last_i[k] -- greatest value read from PROGRESS[k]; arbitrary
        #: initial values are tolerated (self-stabilization, footnote 7),
        #: the None sentinel just forces a first-round refresh.
        self.last: List[Optional[int]] = [None] * n
        # Local copies of the registers p_i owns (Section 3.2 remark).
        self._my_progress: int = shared.progress.peek(i)
        self._my_stop: bool = bool(shared.stop.peek(i))

    # ------------------------------------------------------------------
    # Shared layout
    # ------------------------------------------------------------------
    @classmethod
    def create_shared(cls, memory: SharedMemory, n: int, config: Dict[str, Any]) -> Algorithm1Shared:
        """Lay out Figure 2's registers: ``SUSPICIONS`` (n x n),
        ``PROGRESS`` and ``STOP`` (critical -- AWB1 bounds them)."""
        return Algorithm1Shared(
            suspicions=memory.create_matrix("SUSPICIONS", n, initial=0, critical=False),
            progress=memory.create_array("PROGRESS", n, initial=0, critical=True),
            stop=memory.create_array("STOP", n, initial=True, critical=True),
            n=n,
        )

    # ------------------------------------------------------------------
    # Task T2 -- main loop (lines 6-12)
    # ------------------------------------------------------------------
    def main_task(self) -> Task:
        """Task T2 (lines 6-12): while leader, bump ``PROGRESS``;
        maintain ``STOP`` on gaining/losing the leadership."""
        while True:  # line 6: repeat forever
            ld = yield from self._leader_query()
            while ld == self.pid:  # line 7
                self._my_progress += 1
                yield WriteReg(self.shared.progress.register(self.pid), self._my_progress)  # line 8
                if self._my_stop:  # line 9
                    self._my_stop = False
                    yield WriteReg(self.shared.stop.register(self.pid), False)
                ld = yield from self._leader_query()  # re-evaluate the while guard
            if not self._my_stop:  # line 11
                self._my_stop = True
                yield WriteReg(self.shared.stop.register(self.pid), True)

    # ------------------------------------------------------------------
    # Task T3 -- timer handler (lines 13-27)
    # ------------------------------------------------------------------
    def timer_task(self) -> Task:
        """Task T3 (lines 13-27): check every peer's progress, suspect
        the silent candidates, re-arm the timer with line 27's rule."""
        i, n = self.pid, self.n
        for k in range(n):  # line 14
            if k == i:
                continue
            stop_k = yield self.shared.stop_reads[k]  # line 15
            progress_k = yield self.shared.progress_reads[k]  # line 16
            if progress_k != self.last[k]:  # line 17
                self.candidates.add(k)  # line 18
                self.last[k] = progress_k  # line 19
            elif stop_k:  # line 20
                self.candidates.discard(k)  # line 21
            elif k in self.candidates:  # line 22
                self._my_suspicions[k] += 1
                yield WriteReg(self.shared.suspicions.register(i, k), self._my_suspicions[k])  # line 23
                self.candidates.discard(k)  # line 24
        yield SetTimer(self._next_timeout())  # line 27

    def _next_timeout(self) -> float:
        """Line 27: ``max_k SUSPICIONS[i][k] + 1`` over the own row.

        Only registers owned by ``p_i`` are involved, so this uses the
        local copies -- exactly the paper's observation that the timeout
        is computable without shared reads.  Alternative policies are
        ablation knobs (see ``timeout_policy`` in ``__init__``).
        """
        if self.timeout_policy == "sum":
            return float(sum(self._my_suspicions) + 1)
        if self.timeout_policy == "const":
            return self.const_timeout
        return float(max(self._my_suspicions) + 1)

    def initial_timeout(self) -> Optional[float]:
        """First timer arming, by the same line-27 rule."""
        return self._next_timeout()


__all__ = [
    "Algorithm1Shared",
    "LeastSuspectedOmega",
    "MatrixReads",
    "WriteEfficientOmega",
    "array_reads",
    "matrix_reads",
]
