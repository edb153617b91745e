"""Atomic one-writer/multi-reader (1WnR) registers.

In the simulator every operation is applied at a single virtual-time
instant -- its linearization point -- so atomicity in Herlihy & Wing's
sense holds by construction.  What the register layer adds is:

* **ownership enforcement**: only the owner may write (the paper's model
  and the reason ``SUSPICIONS`` is an ``n x n`` matrix rather than a
  vector);
* **accounting**: the register's own ``read_count`` is the one read
  count of a run, and every write appends one record to
  :class:`~repro.memory.memory.SharedMemory`'s write log, so the
  analysis layer can answer "who wrote what, when" -- which is how
  Theorems 2, 3, 5, 6, 7 are checked.  A read calls into the memory
  only when the run logs reads (Lemma 6's reader census);
* **criticality**: registers may be flagged *critical*, the subset of
  registers the AWB1 assumption constrains (``PROGRESS`` and ``STOP``
  in both algorithms; ``SUSPICIONS`` is explicitly non-critical).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.memory.memory import SharedMemory


class OwnershipError(RuntimeError):
    """A process wrote a register it does not own."""


class AtomicRegister:
    """An atomic 1WnR register.

    Instances are created through :class:`SharedMemory` (which supplies
    the clock and the write log); constructing one directly with
    ``memory=None`` yields a register that only counts its reads, handy
    in unit tests.

    Parameters
    ----------
    name:
        Globally unique name, e.g. ``"PROGRESS[3]"``.
    owner:
        The pid allowed to write, or ``None`` for "unowned" registers
        used by infrastructure.
    initial:
        Initial value.  The paper's algorithms tolerate *arbitrary*
        initial values (footnote 7: the algorithms are self-stabilizing
        with respect to shared variables); scenario knobs exploit this.
    critical:
        Whether the register is subject to the AWB1 timing assumption.
    """

    __slots__ = ("name", "owner", "critical", "_value", "_memory", "_reads", "_matrix")

    def __init__(
        self,
        name: str,
        owner: Optional[int],
        initial: Any = 0,
        critical: bool = False,
        memory: Optional["SharedMemory"] = None,
    ) -> None:
        self.name = name
        self.owner = owner
        self.critical = critical
        self._value = initial
        self._memory = memory
        self._reads = 0
        #: The :class:`~repro.memory.arrays.RegisterMatrix` this register
        #: is an entry of (set by the matrix), whose cached column sums
        #: every value change must invalidate.
        self._matrix: Any = None

    # ------------------------------------------------------------------
    # Operations (linearize at the instant they are applied)
    # ------------------------------------------------------------------
    def read(self, reader: int) -> Any:
        """Atomically read the register (counted)."""
        self._reads += 1
        memory = self._memory
        if memory is not None and memory.log_reads:
            memory._log_read(self.name, reader)
        return self._value

    def write(self, writer: int, value: Any) -> None:
        """Atomically write the register (counted); owner-checked."""
        if self.owner is not None and writer != self.owner:
            raise OwnershipError(
                f"process {writer} attempted to write {self.name} owned by {self.owner}"
            )
        self._value = value
        if self._matrix is not None:
            self._matrix._sums = None
        if self._memory is not None:
            self._memory._count_write(self.name, writer, value)

    # ------------------------------------------------------------------
    # Observer access (not part of the modelled computation)
    # ------------------------------------------------------------------
    def peek(self) -> Any:
        """Read without accounting -- for observers, tests and tracing."""
        return self._value

    def poke(self, value: Any) -> None:
        """Set without accounting or ownership check.

        Used by scenario setup to scramble initial values
        (self-stabilization experiments) -- never by algorithms.
        """
        self._value = value
        if self._matrix is not None:
            self._matrix._sums = None

    @property
    def read_count(self) -> int:
        """Number of (counted) reads ever applied."""
        return self._reads

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AtomicRegister({self.name!r}, owner={self.owner}, value={self._value!r})"


__all__ = ["AtomicRegister", "OwnershipError"]
