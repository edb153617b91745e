"""The shared-memory namespace and its access statistics.

Besides owning every register of a run, :class:`SharedMemory` records an
append-only access log.  The log is what turns the paper's theorems into
checkable statements:

* *Theorem 3* ("after some time only the leader writes, always the same
  variable") becomes a query over the tail of the write log;
* *Theorem 2 / Theorem 6* (boundedness) become growth verdicts over the
  per-register value history;
* *Lemma 6* (everyone else reads forever) becomes a query over the read
  log;
* *Theorem 5*'s bounded-memory adversary needs global state snapshots to
  detect recurring memory states -- :meth:`SharedMemory.snapshot`.

Writes are few and their consumers walk whole records, so the write log
is a list of :class:`WriteRecord`.  Reads outnumber writes by an order
of magnitude and their one consumer (the Lemma 6 census) needs only the
readers' pids, so the read log is kept as three parallel columns --
times, pids and register names -- and a :class:`ReadRecord` is built
only when a query asks for records.
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.memory.arrays import RegisterArray, RegisterMatrix
from repro.memory.mwmr import MultiWriterRegister
from repro.memory.register import AtomicRegister


class AccessKind(str, Enum):
    """Kind of shared-memory access."""

    READ = "read"
    WRITE = "write"


@dataclass(frozen=True, slots=True)
class WriteRecord:
    """One write: when, by whom, to which register, what value."""

    time: float
    pid: int
    register: str
    value: Any
    critical: bool


@dataclass(frozen=True, slots=True)
class ReadRecord:
    """One read: when, by whom, from which register."""

    time: float
    pid: int
    register: str


class SharedMemory:
    """Namespace of registers plus the run's access log.

    The write log is a list of records (:attr:`write_log`).  The read
    log is three parallel columns appended by the logged read hook --
    ``array('d')`` times, ``array('q')`` pids and a list of register
    names -- so a traced read allocates no object.  :attr:`read_log`
    and :meth:`reads_in` build :class:`ReadRecord` objects on demand;
    :meth:`readers_in` slices the pid column directly.

    Parameters
    ----------
    clock:
        Zero-argument callable returning current virtual time -- usually
        ``simulator.now`` via ``lambda: sim.now`` or the bound property.
    log_reads:
        Whether to keep the full read log.  Reads vastly outnumber
        writes (every ``leader()`` invocation reads up to ``n^2``
        registers), so long benches may disable it; aggregate per-pid
        read counters are always maintained.
    """

    def __init__(self, clock: Callable[[], float], log_reads: bool = True) -> None:
        self._clock = clock
        self._registers: Dict[str, AtomicRegister] = {}
        self._mwmr: Dict[str, MultiWriterRegister] = {}
        self.log_reads = log_reads

        self.write_log: List[WriteRecord] = []
        self._write_times: List[float] = []  # parallel to write_log, for bisect
        # The read log, one column per ReadRecord field (times for bisect).
        self._read_times = array("d")
        self._read_pids = array("q")
        self._read_names: List[str] = []

        self.reads_by_pid: Dict[int, int] = {}
        self.writes_by_pid: Dict[int, int] = {}
        self.last_read_time_by_pid: Dict[int, float] = {}
        self.last_write_time_by_pid: Dict[int, float] = {}

        # Reads vastly outnumber every other access; pick the read hook
        # once instead of testing ``log_reads`` on every call.  The
        # instance attribute shadows the class methods for the registers'
        # ``memory._count_read(...)`` calls.
        self._count_read = self._count_read_logged if log_reads else self._count_read_fast

    # ------------------------------------------------------------------
    # Construction of registers
    # ------------------------------------------------------------------
    def create_register(
        self,
        name: str,
        owner: Optional[int],
        initial: Any = 0,
        critical: bool = False,
    ) -> AtomicRegister:
        """Create and register a named 1WnR register."""
        if name in self._registers or name in self._mwmr:
            raise ValueError(f"register {name!r} already exists")
        reg = AtomicRegister(name, owner=owner, initial=initial, critical=critical, memory=self)
        self._registers[name] = reg
        return reg

    def create_array(
        self,
        name: str,
        n: int,
        initial: Any = 0,
        critical: bool = False,
        owner_of: Optional[Callable[[int], int]] = None,
    ) -> RegisterArray:
        """Create a named array of 1WnR registers."""
        return RegisterArray(self, name, n, initial=initial, critical=critical, owner_of=owner_of)

    def create_matrix(
        self,
        name: str,
        n: int,
        initial: Any = 0,
        critical: bool = False,
        owner_of: Optional[Callable[[int, int], int]] = None,
    ) -> RegisterMatrix:
        """Create a named matrix of 1WnR registers."""
        return RegisterMatrix(self, name, n, initial=initial, critical=critical, owner_of=owner_of)

    def create_mwmr(self, name: str, initial: Any = 0, critical: bool = False) -> MultiWriterRegister:
        """Create a multi-writer register (Section 3.5 variant)."""
        if name in self._registers or name in self._mwmr:
            raise ValueError(f"register {name!r} already exists")
        reg = MultiWriterRegister(name, initial=initial, critical=critical, memory=self)
        self._mwmr[name] = reg
        return reg

    def register(self, name: str) -> AtomicRegister:
        """Look up a 1WnR register by name."""
        return self._registers[name]

    def names(self) -> List[str]:
        """All register names (1WnR and multi-writer), sorted."""
        return sorted(list(self._registers) + list(self._mwmr))

    def all_registers(self) -> List[Any]:
        """Every register object (1WnR then multi-writer), name-sorted.

        Used by scenario setup (initial-value scrambling) and observers;
        algorithms never call this.
        """
        regs: List[Any] = [self._registers[name] for name in sorted(self._registers)]
        regs.extend(self._mwmr[name] for name in sorted(self._mwmr))
        return regs

    # ------------------------------------------------------------------
    # Accounting hooks (called by registers)
    # ------------------------------------------------------------------
    def _count_read_logged(self, name: str, pid: int) -> None:
        now = self._clock()
        reads = self.reads_by_pid
        reads[pid] = reads.get(pid, 0) + 1
        self.last_read_time_by_pid[pid] = now
        self._read_times.append(now)
        self._read_pids.append(pid)
        self._read_names.append(name)

    def _count_read_fast(self, name: str, pid: int) -> None:
        """The low-overhead mode: aggregate counters only, no log."""
        reads = self.reads_by_pid
        reads[pid] = reads.get(pid, 0) + 1
        self.last_read_time_by_pid[pid] = self._clock()

    def _count_write(self, name: str, pid: int, value: Any, critical: bool) -> None:
        now = self._clock()
        self.writes_by_pid[pid] = self.writes_by_pid.get(pid, 0) + 1
        self.last_write_time_by_pid[pid] = now
        self.write_log.append(WriteRecord(now, pid, name, value, critical))
        self._write_times.append(now)

    # ------------------------------------------------------------------
    # Window queries (all intervals are half-open [t0, t1))
    # ------------------------------------------------------------------
    def writes_in(self, t0: float, t1: float) -> List[WriteRecord]:
        """Write records with ``t0 <= time < t1``."""
        lo = bisect.bisect_left(self._write_times, t0)
        hi = bisect.bisect_left(self._write_times, t1)
        return self.write_log[lo:hi]

    @property
    def read_log(self) -> List[ReadRecord]:
        """Every logged read as a record, in log order (a fresh list;
        empty when ``log_reads`` is off)."""
        return self._read_records(0, len(self._read_names))

    def _read_records(self, lo: int, hi: int) -> List[ReadRecord]:
        """Rows ``lo:hi`` of the read columns, as records."""
        return list(
            map(ReadRecord, self._read_times[lo:hi], self._read_pids[lo:hi], self._read_names[lo:hi])
        )

    def _read_window(self, t0: float, t1: float) -> Tuple[int, int]:
        """Row bounds of ``[t0, t1)`` in the read columns (needs ``log_reads``)."""
        if not self.log_reads:
            raise RuntimeError("read logging is disabled for this run")
        times = self._read_times
        return bisect.bisect_left(times, t0), bisect.bisect_left(times, t1)

    def reads_in(self, t0: float, t1: float) -> List[ReadRecord]:
        """Read records with ``t0 <= time < t1`` (needs ``log_reads``)."""
        return self._read_records(*self._read_window(t0, t1))

    def writers_in(self, t0: float, t1: float) -> FrozenSet[int]:
        """Pids that wrote at least once in ``[t0, t1)``."""
        return frozenset(rec.pid for rec in self.writes_in(t0, t1))

    def readers_in(self, t0: float, t1: float) -> FrozenSet[int]:
        """Pids that read at least once in ``[t0, t1)`` (needs ``log_reads``)."""
        lo, hi = self._read_window(t0, t1)
        return frozenset(self._read_pids[lo:hi])

    def registers_written_in(self, t0: float, t1: float) -> FrozenSet[str]:
        """Names of registers written in ``[t0, t1)``."""
        return frozenset(rec.register for rec in self.writes_in(t0, t1))

    # ------------------------------------------------------------------
    # Per-register value history and growth
    # ------------------------------------------------------------------
    def value_history(self, name: str) -> List[Tuple[float, Any]]:
        """The ``(time, value)`` sequence written to a register."""
        return [(rec.time, rec.value) for rec in self.write_log if rec.register == name]

    def distinct_values_written(self, name: str) -> Set[Any]:
        """Set of distinct values ever written to a register."""
        return {rec.value for rec in self.write_log if rec.register == name}

    def max_numeric_value(self, name: str) -> Optional[float]:
        """Largest numeric value ever written (``None`` if never written
        or non-numeric)."""
        best: Optional[float] = None
        for rec in self.write_log:
            if rec.register == name and isinstance(rec.value, (int, float)) and not isinstance(rec.value, bool):
                v = float(rec.value)
                best = v if best is None or v > best else best
        return best

    def critical_write_times(self, pid: int) -> List[float]:
        """Times of ``pid``'s writes to *critical* registers.

        Consecutive gaps in this list are exactly the quantity AWB1
        bounds after tau_1 -- the Figure 3 experiment plots them.
        """
        return [rec.time for rec in self.write_log if rec.pid == pid and rec.critical]

    # ------------------------------------------------------------------
    # Global state (Theorem 5 harness)
    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple[Tuple[str, Any], ...]:
        """Hashable snapshot of the full shared-memory state.

        With bounded registers the state space is finite, so snapshots
        must eventually recur (pigeonhole) -- the ingredient of the
        Theorem 5 adversary.  Values must be hashable (they are: ints
        and bools in every algorithm here).
        """
        items: List[Tuple[str, Any]] = []
        for name in sorted(self._registers):
            items.append((name, self._registers[name].peek()))
        for name in sorted(self._mwmr):
            items.append((name, self._mwmr[name].peek()))
        return tuple(items)

    # ------------------------------------------------------------------
    # Totals
    # ------------------------------------------------------------------
    @property
    def total_reads(self) -> int:
        """Counted reads across all processes."""
        return sum(self.reads_by_pid.values())

    @property
    def total_writes(self) -> int:
        """Counted writes across all processes."""
        return sum(self.writes_by_pid.values())


__all__ = ["AccessKind", "ReadRecord", "SharedMemory", "WriteRecord"]
