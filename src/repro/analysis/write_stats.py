"""Access-pattern views: who writes/reads forever, what stays bounded.

"Forever" on a finite trace means: *in every one of the last K windows*
of the run.  With the horizons the benches use (many multiples of the
stabilization time), a process that is supposed to stop writing has
stopped long before the tail windows, and a process that must write
forever writes in every window -- so the census separates the two
populations cleanly.

The judgement itself lives in :mod:`repro.props.checkers` (the tail
windows, the tail-writer query, the record table); these functions are
its per-figure views, so a figure, a ``RunSummary`` census column and a
Theorem 2-4 verdict all read one implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set

from repro.memory.memory import SharedMemory
from repro.props.checkers import (
    CENSUS_WINDOWS,
    in_every_tail_window,
    record_table,
    tail_writes,
)


def forever_writers(
    memory: SharedMemory,
    horizon: float,
    window: float = 100.0,
    count: int = CENSUS_WINDOWS,
) -> FrozenSet[int]:
    """Pids that wrote in *every* one of the last ``count`` windows.

    Theorem 3 predicts this is exactly ``{ell}`` for Algorithm 1;
    Corollary 1 predicts it is the full correct set for any
    bounded-memory algorithm (Algorithm 2, the baseline).
    """
    return in_every_tail_window(memory.writers_in, horizon, window, count)


def forever_readers(
    memory: SharedMemory,
    horizon: float,
    window: float = 100.0,
    count: int = CENSUS_WINDOWS,
) -> FrozenSet[int]:
    """Pids that read in *every* one of the last ``count`` windows
    (Lemma 6: all correct processes except possibly nobody -- even the
    leader keeps reading in both algorithms)."""
    return in_every_tail_window(memory.readers_in, horizon, window, count)


def tail_written_registers(
    memory: SharedMemory,
    horizon: float,
    tail: float = 200.0,
) -> FrozenSet[str]:
    """Register names still being written in the last ``tail`` time units
    (Theorem 3: one register; Theorem 7: the ``PROGRESS[ell][i]`` /
    ``LAST[ell][i]`` hand-shake pairs)."""
    return tail_writes(memory, horizon, tail)[1]


@dataclass
class SingleWriterPoint:
    """Theorem 3's stabilization point: when the writer set became a
    singleton."""

    reached: bool
    #: The sole remaining writer, when reached.
    writer: Optional[int]
    #: Latest write time of any *other* process -- after this instant a
    #: single process writes.
    time: Optional[float]


def single_writer_point(memory: SharedMemory, horizon: float, tail: float = 100.0) -> SingleWriterPoint:
    """Detect the time after which exactly one process writes."""
    tail_writers = tail_writes(memory, horizon, tail)[0]
    if len(tail_writers) != 1:
        return SingleWriterPoint(False, None, None)
    writer = min(tail_writers)
    return SingleWriterPoint(True, writer, memory.last_write_by_others(writer))


@dataclass
class BoundednessVerdict:
    """Growth verdict for one register over a run."""

    register: str
    writes: int
    #: Largest numeric value ever written (None for non-numeric).
    max_value: Optional[float]
    #: Number of distinct values ever written.
    distinct_values: int
    #: Whether the register's numeric maximum was still increasing in
    #: the tail of the run -- the empirical signature of "unbounded".
    still_growing: bool
    last_write_time: float


def boundedness(
    memory: SharedMemory,
    horizon: float,
    tail_fraction: float = 0.25,
) -> Dict[str, BoundednessVerdict]:
    """Per-register growth verdicts (the Figure 5 columns).

    A register is *still growing* when a write in the final
    ``tail_fraction`` of the run strictly exceeded every value written
    before it -- at least one record in the tail of
    :func:`repro.props.checkers.record_table`.  Theorem 2 predicts a
    single still-growing register for Algorithm 1 (``PROGRESS[ell]``);
    Theorem 6 predicts none for Algorithm 2.
    """
    table = record_table(memory.write_log, horizon, tail_fraction)
    growing = table.growing_registers(min_records=1)
    writes: Dict[str, int] = {}
    distinct: Dict[str, Set] = {}
    last_time: Dict[str, float] = {}
    for rec in memory.write_log:
        name = rec.register
        writes[name] = writes.get(name, 0) + 1
        distinct.setdefault(name, set()).add(rec.value)
        last_time[name] = rec.time
    return {
        name: BoundednessVerdict(
            register=name,
            writes=count,
            max_value=table.max_by_register.get(name),
            distinct_values=len(distinct[name]),
            still_growing=name in growing,
            last_write_time=last_time[name],
        )
        for name, count in writes.items()
    }


def growing_registers(memory: SharedMemory, horizon: float, tail_fraction: float = 0.25) -> FrozenSet[str]:
    """Names of registers still growing at the end of the run."""
    table = record_table(memory.write_log, horizon, tail_fraction)
    return frozenset(table.growing_registers(min_records=1))


__all__ = [
    "BoundednessVerdict",
    "SingleWriterPoint",
    "boundedness",
    "forever_readers",
    "forever_writers",
    "growing_registers",
    "single_writer_point",
    "tail_written_registers",
]
