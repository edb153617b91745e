"""Register arrays and matrices with per-entry ownership.

The algorithms' shared state is naturally array-shaped:

* ``PROGRESS[n]``      -- entry ``i`` owned by ``p_i``           (Algorithm 1)
* ``STOP[n]``          -- entry ``i`` owned by ``p_i``           (both)
* ``SUSPICIONS[n][n]`` -- row ``j`` owned by ``p_j``             (both)
* ``PROGRESS[n][n]``   -- row ``i`` owned by ``p_i``             (Algorithm 2)
* ``LAST[n][n]``       -- entry ``(i, k)`` owned by ``p_k``      (Algorithm 2)

Note the last one: ``LAST`` is *column*-owned -- the hand-shake partner,
not the row process, writes it.  Ownership is therefore a function of
the index, supplied at construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.memory.register import AtomicRegister

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.memory.memory import SharedMemory


class RegisterArray:
    """A fixed-length array of 1WnR registers, one per index.

    Parameters
    ----------
    owner_of:
        Maps index to owning pid.  Defaults to identity (entry ``i``
        owned by ``p_i``), which covers ``PROGRESS`` and ``STOP``.
    """

    def __init__(
        self,
        memory: Optional["SharedMemory"],
        name: str,
        n: int,
        initial: Any = 0,
        critical: bool = False,
        owner_of: Optional[Callable[[int], int]] = None,
    ) -> None:
        if n <= 0:
            raise ValueError("array length must be positive")
        self.name = name
        self.n = n
        owner_fn = owner_of or (lambda i: i)
        self._regs: List[AtomicRegister] = []
        for i in range(n):
            reg_name = f"{name}[{i}]"
            if memory is not None:
                reg = memory.create_register(
                    reg_name, owner=owner_fn(i), initial=initial, critical=critical
                )
            else:
                reg = AtomicRegister(reg_name, owner=owner_fn(i), initial=initial, critical=critical)
            self._regs.append(reg)

    def register(self, i: int) -> AtomicRegister:
        """The underlying register at index ``i``."""
        return self._regs[i]

    def read(self, i: int, reader: int) -> Any:
        """Atomic counted read of entry ``i``."""
        return self._regs[i].read(reader)

    def write(self, i: int, writer: int, value: Any) -> None:
        """Atomic counted write of entry ``i`` (owner-checked)."""
        self._regs[i].write(writer, value)

    def peek(self, i: int) -> Any:
        """Observer read of entry ``i`` (uncounted)."""
        return self._regs[i].peek()

    def __len__(self) -> int:
        return self.n


class RegisterMatrix:
    """An ``n x n`` matrix of 1WnR registers with per-entry ownership.

    Parameters
    ----------
    owner_of:
        Maps ``(row, col)`` to the owning pid.  Defaults to row
        ownership (``SUSPICIONS``); Algorithm 2's ``LAST`` passes
        ``lambda row, col: col``.

    The matrix caches its column sums (the observer's ``leader()``
    aggregate) under one invalidation rule: every ``write`` or ``poke``
    of a member register drops the cache, whoever issues it -- an
    algorithm step, the emulated backend's mirror write, a scenario's
    scramble hook.  The cache is a one-slot list the matrix and its
    registers share, so a register holds no reference back to its
    matrix.
    """

    def __init__(
        self,
        memory: Optional["SharedMemory"],
        name: str,
        n: int,
        initial: Any = 0,
        critical: bool = False,
        owner_of: Optional[Callable[[int, int], int]] = None,
    ) -> None:
        if n <= 0:
            raise ValueError("matrix size must be positive")
        self.name = name
        self.n = n
        owner_fn = owner_of or (lambda row, col: row)
        # Slot 0: the cached column sums, None when dirty (recomputed on demand).
        self._sums: List[Optional[List[Any]]] = [None]
        self._regs: List[List[AtomicRegister]] = []
        for i in range(n):
            row: List[AtomicRegister] = []
            for j in range(n):
                reg_name = f"{name}[{i}][{j}]"
                if memory is not None:
                    reg = memory.create_register(
                        reg_name, owner=owner_fn(i, j), initial=initial, critical=critical
                    )
                else:
                    reg = AtomicRegister(
                        reg_name, owner=owner_fn(i, j), initial=initial, critical=critical
                    )
                reg._matrix_sums = self._sums
                row.append(reg)
            self._regs.append(row)

    def register(self, i: int, j: int) -> AtomicRegister:
        """The underlying register at ``(i, j)``."""
        return self._regs[i][j]

    def read(self, i: int, j: int, reader: int) -> Any:
        """Atomic counted read of entry ``(i, j)``."""
        return self._regs[i][j].read(reader)

    def write(self, i: int, j: int, writer: int, value: Any) -> None:
        """Atomic counted write of entry ``(i, j)`` (owner-checked)."""
        self._regs[i][j].write(writer, value)

    def peek(self, i: int, j: int) -> Any:
        """Observer read of entry ``(i, j)`` (uncounted)."""
        return self._regs[i][j].peek()

    def peek_column(self, j: int) -> List[Any]:
        """Observer snapshot of column ``j`` (e.g. all suspicions of ``p_j``)."""
        return [self._regs[i][j].peek() for i in range(self.n)]

    def column_sums(self) -> List[Any]:
        """Observer sums of every column (a shared list: do not mutate).

        Recomputed only after a member register changed, so sampling a
        settled ``SUSPICIONS`` costs one call, not ``n^2`` peeks.
        """
        cache = self._sums
        sums = cache[0]
        if sums is None:
            rows = [[reg._value for reg in row] for row in self._regs]
            sums = cache[0] = [sum(column) for column in zip(*rows)]
        return sums


__all__ = ["RegisterArray", "RegisterMatrix"]
