"""Atomic one-writer/multi-reader (1WnR) registers.

In the simulator every operation is applied at a single virtual-time
instant -- its linearization point -- so atomicity in Herlihy & Wing's
sense holds by construction.  What the register layer adds is:

* **ownership enforcement**: only the owner may write (the paper's model
  and the reason ``SUSPICIONS`` is an ``n x n`` matrix rather than a
  vector);
* **accounting**: the register's own ``read_count`` is the one read
  count of a run, and every write appends one record to the run's
  :class:`~repro.memory.memory.AccessLog`, so the analysis layer can
  answer "who wrote what, when" -- which is how Theorems 2, 3, 5, 6, 7
  are checked.  A read calls into the log only when the run logs reads
  (Lemma 6's reader census);
* **criticality**: registers may be flagged *critical*, the subset of
  registers the AWB1 assumption constrains (``PROGRESS`` and ``STOP``
  in both algorithms; ``SUSPICIONS`` is explicitly non-critical).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.memory.memory import AccessLog


class OwnershipError(RuntimeError):
    """A process wrote a register it does not own."""


class AtomicRegister:
    """An atomic 1WnR register.

    Instances are created through :class:`SharedMemory`, which hands
    each register the run's :class:`~repro.memory.memory.AccessLog`
    (clock, write log, read columns) -- never the memory itself, so
    the namespace and its registers form no reference cycle -- and the
    register takes its id in the log's register-id column from it.
    Constructing one directly with ``log=None`` yields a register that
    only counts its reads, handy in unit tests.

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

    __slots__ = ("name", "owner", "critical", "_value", "_log", "_id", "_reads", "_matrix_sums")

    def __init__(
        self,
        name: str,
        owner: Optional[int],
        initial: Any = 0,
        critical: bool = False,
        log: Optional["AccessLog"] = None,
    ) -> None:
        self.name = name
        self.owner = owner
        self.critical = critical
        self._value = initial
        self._log = log
        #: This register's row value in the log's register-id column.
        self._id = log.register_id(name) if log is not None else 0
        self._reads = 0
        #: The one-slot column-sum cache of the
        #: :class:`~repro.memory.arrays.RegisterMatrix` this register is
        #: an entry of (set by the matrix), which every value change
        #: must empty.  The slot, not the matrix: no cycle.
        self._matrix_sums: Optional[List[Any]] = None

    # ------------------------------------------------------------------
    # Operations (linearize at the instant they are applied)
    # ------------------------------------------------------------------
    def read(self, reader: int) -> Any:
        """Atomically read the register (counted)."""
        self._reads += 1
        log = self._log
        if log is not None and log.log_reads:
            log.log_read(self._id, reader)
        return self._value

    def write(self, writer: int, value: Any) -> None:
        """Atomically write the register (counted); owner-checked."""
        if self.owner is not None and writer != self.owner:
            raise OwnershipError(
                f"process {writer} attempted to write {self.name} owned by {self.owner}"
            )
        self._value = value
        if self._matrix_sums is not None:
            self._matrix_sums[0] = None
        if self._log is not None:
            self._log.log_write(self.name, writer, value)

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
        if self._matrix_sums is not None:
            self._matrix_sums[0] = None

    @property
    def read_count(self) -> int:
        """Number of (counted) reads ever applied."""
        return self._reads

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AtomicRegister({self.name!r}, owner={self.owner}, value={self._value!r})"


__all__ = ["AtomicRegister", "OwnershipError"]
