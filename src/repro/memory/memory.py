"""The shared-memory namespace and its access log.

Besides owning every register of a run, :class:`SharedMemory` keeps the
run's one record of each access.  That record is what turns the paper's
theorems into checkable statements:

* *Theorem 3* ("after some time only the leader writes, always the same
  variable") becomes a query over the tail of the write log;
* *Theorem 2 / Theorem 6* (boundedness) become growth verdicts over the
  per-register value history;
* *Lemma 6* (everyone else reads forever) becomes a query over the read
  log;
* *Theorem 5*'s bounded-memory adversary needs global state snapshots to
  detect recurring memory states -- :meth:`SharedMemory.snapshot`.

Each access is recorded once.  A write appends one
:class:`WriteRecord` to :attr:`SharedMemory.write_log`, the only write
record: totals, per-window writer sets, the single-writer switch time
and the critical-write gaps are all queries over it.  A read bumps its
register's ``read_count``, the only read count; only a run that logs
reads also appends it to the read log.  Reads outnumber writes by an
order of magnitude and their one consumer (the Lemma 6 census) needs
only the readers' pids, so the read log is three parallel columns --
8-byte times, 2-byte pids and 2-byte register ids, 12 bytes a read --
and a :class:`ReadRecord` is built only when a query asks for records.
A register gets its id from the log when it is created and keeps it;
the log's one list of names maps ids back.

Both records live in one :class:`AccessLog`, which the memory and each
of its registers hold.  A register never holds the memory itself: the
namespace points at its registers and the registers point at the log,
so the graph has no cycle and a finished run is freed by reference
counting alone.
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.memory.arrays import RegisterArray, RegisterMatrix
from repro.memory.mwmr import MultiWriterRegister
from repro.memory.register import AtomicRegister


@dataclass(frozen=True, slots=True)
class WriteRecord:
    """One write: when, by whom, to which register, what value."""

    time: float
    pid: int
    register: str
    value: Any


_TIME = attrgetter("time")


@dataclass(frozen=True, slots=True)
class ReadRecord:
    """One read: when, by whom, from which register."""

    time: float
    pid: int
    register: str


#: Registers one :class:`AccessLog` can number: its id column is ``array('H')``.
MAX_REGISTERS = 1 << 16


class AccessLog:
    """The run's one record of each access, appended by the registers.

    ``write_log`` is a list of :class:`WriteRecord`, in time order.  The
    read log is three parallel columns -- ``array('d')`` times,
    ``array('H')`` pids and ``array('H')`` register ids -- appended only
    when ``log_reads`` is on, so a traced read allocates no object.
    ``names`` maps a register id (:meth:`register_id`) to its name.
    ``clock`` stamps both logs.
    """

    __slots__ = ("clock", "log_reads", "write_log", "read_times", "read_pids", "read_regs", "names")

    def __init__(self, clock: Callable[[], float], log_reads: bool) -> None:
        self.clock = clock
        self.log_reads = log_reads
        self.write_log: List[WriteRecord] = []
        self.read_times = array("d")
        self.read_pids = array("H")
        self.read_regs = array("H")
        self.names: List[str] = []

    def register_id(self, name: str) -> int:
        """Number a new register for the read columns."""
        if len(self.names) >= MAX_REGISTERS:
            raise ValueError(
                f"cannot create register {name!r}: one memory holds at most "
                f"{MAX_REGISTERS} registers (the read log's register-id column is 16-bit)"
            )
        self.names.append(name)
        return len(self.names) - 1

    def log_read(self, reg_id: int, pid: int) -> None:
        """Append one read to the read columns (only when ``log_reads``)."""
        self.read_times.append(self.clock())
        self.read_pids.append(pid)
        self.read_regs.append(reg_id)

    def log_write(self, name: str, pid: int, value: Any) -> None:
        """Append one write record."""
        self.write_log.append(WriteRecord(self.clock(), pid, name, value))


class SharedMemory:
    """Namespace of registers plus the run's access log.

    The write log is a list of records (:attr:`write_log`), in time
    order.  The read log is the :class:`AccessLog`'s three parallel
    columns (time, pid, register id), so a traced read allocates no
    object.  :attr:`read_log` and :meth:`reads_in` build
    :class:`ReadRecord` objects on demand; :meth:`readers_in` slices the
    pid column directly.

    Parameters
    ----------
    clock:
        Zero-argument callable returning current virtual time -- usually
        ``simulator.now`` via ``lambda: sim.now`` or the bound property.
    log_reads:
        Whether to keep the full read log.  Reads vastly outnumber
        writes (every ``leader()`` invocation reads up to ``n^2``
        registers), so long benches may disable it; each register still
        counts its reads, and :attr:`total_reads` sums those counts.
    """

    def __init__(self, clock: Callable[[], float], log_reads: bool = True) -> None:
        self._clock = clock
        self._registers: Dict[str, AtomicRegister] = {}
        self._mwmr: Dict[str, MultiWriterRegister] = {}
        self._log = AccessLog(clock, log_reads)

    @property
    def log_reads(self) -> bool:
        """Whether reads are logged (each register counts them regardless)."""
        return self._log.log_reads

    @property
    def write_log(self) -> List[WriteRecord]:
        """Every write, in time order (the run's one write record)."""
        return self._log.write_log

    @write_log.setter
    def write_log(self, records: List[WriteRecord]) -> None:
        """Replace the write log; the registers append to the new list."""
        self._log.write_log = records

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
        reg = AtomicRegister(name, owner=owner, initial=initial, critical=critical, log=self._log)
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
        reg = MultiWriterRegister(name, initial=initial, critical=critical, log=self._log)
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
    # Window queries (all intervals are half-open [t0, t1))
    # ------------------------------------------------------------------
    def writes_in(self, t0: float, t1: float) -> List[WriteRecord]:
        """Write records with ``t0 <= time < t1``."""
        log = self.write_log
        lo = bisect.bisect_left(log, t0, key=_TIME)
        hi = bisect.bisect_left(log, t1, lo, key=_TIME)
        return log[lo:hi]

    @property
    def read_log(self) -> List[ReadRecord]:
        """Every logged read as a record, in log order (a fresh list;
        empty when ``log_reads`` is off)."""
        return self._read_records(0, len(self._log.read_regs))

    def _read_records(self, lo: int, hi: int) -> List[ReadRecord]:
        """Rows ``lo:hi`` of the read columns, as records."""
        log = self._log
        names = map(log.names.__getitem__, log.read_regs[lo:hi])
        return list(map(ReadRecord, log.read_times[lo:hi], log.read_pids[lo:hi], names))

    def _read_window(self, t0: float, t1: float) -> Tuple[int, int]:
        """Row bounds of ``[t0, t1)`` in the read columns (needs ``log_reads``)."""
        if not self.log_reads:
            raise RuntimeError("read logging is disabled for this run")
        times = self._log.read_times
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
        return frozenset(self._log.read_pids[lo:hi])

    def registers_written_in(self, t0: float, t1: float) -> FrozenSet[str]:
        """Names of registers written in ``[t0, t1)``."""
        return frozenset(rec.register for rec in self.writes_in(t0, t1))

    def last_write_by_others(self, pid: int) -> float:
        """Latest write by any process other than ``pid`` (0.0 when nobody
        else ever wrote): after this instant ``pid`` writes alone --
        Theorem 3's switch time."""
        for rec in reversed(self.write_log):
            if rec.pid != pid:
                return rec.time
        return 0.0

    # ------------------------------------------------------------------
    # Critical writes (AWB1)
    # ------------------------------------------------------------------
    def critical_write_times(self, pid: int) -> List[float]:
        """Times of ``pid``'s writes to *critical* registers.

        Consecutive gaps in this list are exactly the quantity AWB1
        bounds after tau_1 -- the Figure 3 experiment plots them.
        """
        critical = {reg.name for reg in self.all_registers() if reg.critical}
        return [rec.time for rec in self.write_log if rec.pid == pid and rec.register in critical]

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
        """Counted reads across all processes (the registers' counts)."""
        return sum(reg.read_count for reg in self.all_registers())

    @property
    def total_writes(self) -> int:
        """Counted writes across all processes (the write log's length)."""
        return len(self.write_log)


__all__ = ["MAX_REGISTERS", "AccessLog", "ReadRecord", "SharedMemory", "WriteRecord"]
