"""Each register access is recorded once, whatever path it takes.

A register's ``read_count`` is the one read count of a run and the
write log is the one write record, so ``total_reads`` / ``total_writes``
are sums over those, and a traced run's read log holds exactly one row
per counted read.  The cells cover every access path: plain 1WnR reads
and writes, multi-writer reads and ``fetch&add`` (the leader-crash
cells, where followers raise suspicions), the SAN disk's interval
operations, the emulated quorum read / write / fetch-add completions and
the atomic write-back read.  The fast run of each cell must count the
same accesses as the traced one.
"""

from __future__ import annotations

import pytest

from repro.analysis.suspicion import suspicion_writes
from repro.workloads.registry import ALGORITHMS
from repro.workloads.scenarios import (
    leader_crash,
    leader_crash_emulated,
    nominal,
    nominal_emulated,
    nominal_emulated_atomic,
    san,
)

CELLS = [
    pytest.param(nominal(n=4, horizon=1000.0), "alg1", id="nominal-alg1"),
    pytest.param(nominal(n=4, horizon=1000.0), "alg1-nwnr", id="nominal-nwnr"),
    pytest.param(leader_crash(n=4, horizon=1500.0), "alg1-nwnr", id="leader-crash-nwnr"),
    pytest.param(san(n=3, horizon=2000.0), "alg1", id="san-alg1"),
    pytest.param(nominal_emulated(n=3, horizon=1000.0), "alg1-nwnr", id="emulated-nwnr"),
    pytest.param(leader_crash_emulated(n=3, horizon=1500.0), "alg1-nwnr", id="leader-crash-emulated-nwnr"),
    pytest.param(nominal_emulated_atomic(n=3, horizon=1000.0), "alg1", id="emulated-atomic-alg1"),
]


@pytest.mark.parametrize("scenario, algorithm", CELLS)
def test_every_access_path_counts_once(scenario, algorithm):
    cls = ALGORITHMS[algorithm]
    memory = scenario.build(cls, seed=0).execute().memory
    assert memory.log_reads
    counted = sum(reg.read_count for reg in memory.all_registers())
    assert memory.total_reads == len(memory.read_log) == counted > 0
    assert memory.total_writes == len(memory.write_log) > 0
    if scenario.name.startswith("leader-crash"):
        assert suspicion_writes(memory)  # the fetch&add path ran

    fast = scenario.build(cls, seed=0, log_reads=False, trace_events=False).execute().memory
    assert (fast.total_reads, fast.total_writes) == (memory.total_reads, memory.total_writes)
    assert fast.read_log == []
