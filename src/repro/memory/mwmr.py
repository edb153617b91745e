"""Multi-writer/multi-reader atomic registers (Section 3.5 variant).

The paper notes that with nWnR atomic registers "each column
``SUSPICIONS[.][j]`` can be replaced by a single ``SUSPICIONS[j]``",
turning the matrix into a vector.  Plain read/write nWnR registers
would let two concurrent increments race (read-modify-write is not
atomic); to keep the variant's suspicion counters exact we also expose
``fetch_add``, modelling a fetch&add object.  The variant additionally
works with the racy two-step increment -- a scenario knob covered by
tests -- because lost increments only *slow* suspicion growth, never
unbound the AWB1 process's count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.memory.memory import AccessLog


class MultiWriterRegister:
    """An atomic nWnR register (any process may write).

    Operations linearize at the instant they are applied, like
    :class:`~repro.memory.register.AtomicRegister`.
    """

    __slots__ = ("name", "critical", "_value", "_log", "_id", "_reads")

    def __init__(
        self,
        name: str,
        initial: Any = 0,
        critical: bool = False,
        log: Optional["AccessLog"] = None,
    ) -> None:
        self.name = name
        self.critical = critical
        self._value = initial
        self._log = log
        #: This register's row value in the log's register-id column.
        self._id = log.register_id(name) if log is not None else 0
        self._reads = 0

    def read(self, reader: int) -> Any:
        """Atomically read the register (counted)."""
        self._reads += 1
        log = self._log
        if log is not None and log.log_reads:
            log.log_read(self._id, reader)
        return self._value

    def write(self, writer: int, value: Any) -> None:
        """Atomically write the register (counted); any writer allowed."""
        self._value = value
        if self._log is not None:
            self._log.log_write(self.name, writer, value)

    def fetch_add(self, writer: int, amount: int = 1) -> int:
        """Atomic read-modify-write increment; returns the *old* value.

        Counted as one read plus one write (the operation touches memory
        once but both directions of the access matter for the
        forever-reader/forever-writer censuses).
        """
        old = self.read(writer)
        self.write(writer, old + amount)
        return old

    def peek(self) -> Any:
        """Observer read (uncounted)."""
        return self._value

    def poke(self, value: Any) -> None:
        """Observer write (uncounted) -- scenario setup only."""
        self._value = value

    @property
    def read_count(self) -> int:
        """Number of (counted) reads ever applied."""
        return self._reads

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MultiWriterRegister({self.name!r}, value={self._value!r})"


__all__ = ["MultiWriterRegister"]
