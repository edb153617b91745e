"""The one interval checker over the one history record.

Both interval substrates record :class:`OpRecord`s, so every case here
is one.  The disk-shaped cases name a value by its write *version* v and
stamp it ``(v + 1, writer pid)``, exactly as the disk stamps it; the
checker must accept every history a linearizing substrate can produce
and reject each of the classical violations.  The timestamped cases
pin Lamport's hierarchy: regularity = conditions 1-2, atomicity adds
the new/old-inversion rule.  Hypothesis replays random sequential and
concurrent schedules at hidden linearization points to probe for false
positives -- and, on the concurrent ones, plants a stale read the
checker must catch.
"""

from __future__ import annotations

import dataclasses
import math
import random

from hypothesis import given
from hypothesis import strategies as st

from repro.memory.linearizability import (
    INITIAL_TS,
    OpRecord,
    check_atomic_history,
    check_regular_history,
)


def write(version: int, inv: float, resp: float, pid: int = 0, reg: str = "R") -> OpRecord:
    return OpRecord(
        op_id=version, kind="write", pid=pid, register=reg, ts=(version + 1, pid),
        value=None, inv=inv, resp=resp,
    )


def read(version: int, inv: float, resp: float, pid: int = 1, reg: str = "R") -> OpRecord:
    """A read of version ``version`` of the single writer pid 0
    (``-1`` is the initial value)."""
    return OpRecord(
        op_id=1000 + int(inv * 10), kind="read", pid=pid, register=reg,
        ts=INITIAL_TS if version < 0 else (version + 1, 0), value=None, inv=inv, resp=resp,
    )


class TestAccepts:
    def test_empty_history(self):
        assert check_atomic_history([]).ok

    def test_sequential_history(self):
        history = [
            write(0, 0.0, 1.0),
            read(0, 2.0, 3.0),
            write(1, 4.0, 5.0),
            read(1, 6.0, 7.0),
        ]
        assert check_atomic_history(history).ok

    def test_read_overlapping_write_may_see_either(self):
        history_old = [write(0, 0.0, 1.0), write(1, 2.0, 4.0), read(0, 2.5, 3.0)]
        history_new = [write(0, 0.0, 1.0), write(1, 2.0, 4.0), read(1, 2.5, 3.0)]
        assert check_atomic_history(history_old).ok
        assert check_atomic_history(history_new).ok

    def test_initial_value_read(self):
        assert check_atomic_history([read(-1, 0.0, 1.0), write(0, 2.0, 3.0)]).ok

    def test_multiple_registers_independent(self):
        history = [
            write(0, 0.0, 1.0, reg="A"),
            write(0, 0.0, 1.0, reg="B"),
            read(0, 2.0, 3.0, reg="A"),
            read(0, 2.0, 3.0, reg="B"),
        ]
        report = check_atomic_history(history)
        assert report.ok
        assert report.registers_checked == 2

    def test_summary_mentions_counts(self):
        report = check_atomic_history([write(0, 0.0, 1.0)])
        assert "1 ops" in report.summary()


class TestRejects:
    def test_read_from_future(self):
        history = [write(0, 0.0, 1.0), read(1, 2.0, 3.0), write(1, 5.0, 6.0)]
        report = check_atomic_history(history)
        assert not report.ok
        assert any(v.rule == "read-from-future" for v in report.violations)

    def test_stale_read(self):
        # Version 1's write responded at 3.0; a read starting at 4.0
        # must not return version 0.
        history = [write(0, 0.0, 1.0), write(1, 2.0, 3.0), read(0, 4.0, 5.0)]
        report = check_atomic_history(history)
        assert not report.ok
        assert any(v.rule == "stale-read" for v in report.violations)

    def test_new_old_inversion(self):
        history = [
            write(0, 0.0, 1.0),
            write(1, 2.0, 3.0),
            read(1, 3.5, 4.0),
            read(0, 5.0, 6.0, pid=2),
        ]
        report = check_atomic_history(history)
        assert not report.ok
        rules = {v.rule for v in report.violations}
        assert "new-old-inversion" in rules or "stale-read" in rules

    def test_phantom_version(self):
        report = check_atomic_history([read(7, 0.0, 1.0)])
        assert not report.ok
        assert any(v.rule == "phantom-read" for v in report.violations)


class TestReportEdgeCases:
    def test_empty_history_summary_is_explicitly_vacuous(self):
        """An empty history must not read like checked evidence."""
        report = check_atomic_history([])
        assert report.ok
        assert "empty history" in report.summary()
        assert "no operations" in report.summary()

    def test_long_violation_list_states_elision(self):
        history = [write(0, 0.0, 1.0)] + [
            read(7, 2.0 + i, 3.0 + i) for i in range(15)
        ]
        report = check_atomic_history(history)
        assert not report.ok
        assert "... and 5 more" in report.summary()

    def test_equal_version_writes_report_cleanly(self):
        """Two writes claiming one stamp: one clean duplicate-timestamp
        violation, no raw record reprs in the detail text."""
        history = [write(0, 0.0, 1.0), write(0, 2.0, 3.0), write(1, 4.0, 5.0)]
        report = check_atomic_history(history)
        assert [v.rule for v in report.violations] == ["duplicate-timestamp"]
        assert "OpRecord" not in report.violations[0].detail


# ----------------------------------------------------------------------
# Timestamped interval histories (multi-writer stamps, pending writes)
# ----------------------------------------------------------------------
def ewrite(ts, inv, resp, pid=0, reg="R", value=1):
    return OpRecord(
        op_id=int(inv * 10), kind="write", pid=pid, register=reg,
        ts=ts, value=value, inv=inv, resp=resp,
    )


def eread(ts, inv, resp, pid=1, reg="R", value=1):
    return OpRecord(
        op_id=1000 + int(inv * 10), kind="read", pid=pid, register=reg,
        ts=ts, value=value, inv=inv, resp=resp,
    )


class TestIntervalCheckersAccept:
    def test_empty_history(self):
        assert check_atomic_history([]).ok
        assert check_regular_history([]).ok

    def test_sequential_history(self):
        history = [
            ewrite((1, 0), 0.0, 1.0),
            eread((1, 0), 2.0, 3.0),
            ewrite((2, 0), 4.0, 5.0),
            eread((2, 0), 6.0, 7.0),
        ]
        assert check_atomic_history(history).ok

    def test_initial_value_read(self):
        assert check_atomic_history([eread(INITIAL_TS, 0.0, 1.0), ewrite((1, 0), 2.0, 3.0)]).ok

    def test_read_overlapping_write_may_see_either(self):
        base = [ewrite((1, 0), 0.0, 1.0), ewrite((2, 0), 2.0, 6.0)]
        assert check_atomic_history(base + [eread((1, 0), 3.0, 4.0)]).ok
        assert check_atomic_history(base + [eread((2, 0), 3.0, 4.0)]).ok

    def test_pending_write_never_counts_as_completed(self):
        """A write with resp = inf (in flight at the horizon) can be
        read concurrently but never triggers the stale-read rule."""
        history = [ewrite((1, 0), 0.0, math.inf), eread((1, 0), 2.0, 3.0),
                   eread(INITIAL_TS, 4.0, 5.0)]
        assert check_regular_history(history).ok

    def test_multi_writer_timestamps(self):
        """(counter, pid) stamps from different writers are ordered
        lexicographically, like the mwmr emulation produces them."""
        history = [
            ewrite((1, 1), 0.0, 1.0, pid=1),
            ewrite((1, 2), 0.5, 1.5, pid=2),
            eread((1, 2), 2.0, 3.0),
        ]
        assert check_atomic_history(history).ok


class TestIntervalCheckersReject:
    def test_read_from_future_fails_both_levels(self):
        history = [eread((1, 0), 0.0, 1.0), ewrite((1, 0), 2.0, 3.0)]
        for checker in (check_atomic_history, check_regular_history):
            report = checker(history)
            assert any(v.rule == "read-from-future" for v in report.violations)

    def test_stale_read_fails_both_levels(self):
        history = [ewrite((1, 0), 0.0, 1.0), ewrite((2, 0), 2.0, 3.0),
                   eread((1, 0), 4.0, 5.0)]
        for checker in (check_atomic_history, check_regular_history):
            assert not checker(history).ok

    def test_new_old_inversion_splits_the_levels(self):
        """The defining difference: regular permits it, atomic forbids it."""
        history = [
            ewrite((2, 0), 0.0, 10.0),  # slow write, concurrent with both reads
            ewrite((1, 0), -2.0, -1.0),
            eread((2, 0), 1.0, 2.0),
            eread((1, 0), 3.0, 4.0, pid=2),
        ]
        assert check_regular_history(history).ok
        report = check_atomic_history(history)
        assert not report.ok
        assert any(v.rule == "new-old-inversion" for v in report.violations)

    def test_phantom_timestamp(self):
        report = check_atomic_history([eread((9, 9), 0.0, 1.0)])
        assert any(v.rule == "phantom-read" for v in report.violations)

    def test_duplicate_timestamp_reported_cleanly(self):
        history = [ewrite((1, 0), 0.0, 1.0), ewrite((1, 0), 2.0, 3.0)]
        report = check_atomic_history(history)
        assert [v.rule for v in report.violations] == ["duplicate-timestamp"]
        assert "OpRecord" not in report.violations[0].detail


# ----------------------------------------------------------------------
# Generated schedules
# ----------------------------------------------------------------------
def _concurrent_schedule(rng: random.Random):
    """Replay overlapping intervals at hidden linearization points.

    Four processes each issue a sequence of operations, one at a time,
    on two registers: ``S`` (single writer pid 0, stamps
    ``(counter + 1, 0)`` like the disk and the 1WMR emulation) and
    ``M`` (every pid writes, taking the lexicographic successor of the
    current ``(counter, pid)`` stamp like the multi-writer emulation).
    Each interval hides a point inside it; replaying the points in order
    against one register per name gives each write its stamp and each
    read the stamp and value current at its point.  Returns the history
    and, per register, the stamps in write order with their values.
    """
    ops = []
    for pid in range(4):
        t = rng.uniform(0.0, 2.0)
        for _ in range(rng.randint(1, 6)):
            dur = rng.uniform(0.1, 4.0)
            reg = rng.choice("SM")
            kind = "write" if (reg == "M" or pid == 0) and rng.random() < 0.5 else "read"
            ops.append((t + rng.uniform(0.0, dur), pid, reg, kind, t, t + dur))
            t += dur + rng.uniform(0.01, 1.0)
    current = {reg: (INITIAL_TS, 0) for reg in "SM"}
    versions = {reg: [(INITIAL_TS, 0)] for reg in "SM"}
    history = []
    for op_id, (_, pid, reg, kind, inv, resp) in enumerate(sorted(ops)):
        ts, value = current[reg]
        if kind == "write":
            counter, last_pid = ts
            ts = (counter, pid) if reg == "M" and pid > last_pid else (counter + 1, pid)
            value = f"{reg}{op_id}"
            current[reg] = (ts, value)
            versions[reg].append((ts, value))
        history.append(OpRecord(op_id, kind, pid, reg, ts, value, inv, resp))
    return history, versions


def _plant_stale_read(history, versions, rng: random.Random):
    """Swap one read's stamp for an older one whose successor write
    responded before the read was invoked (or ``None`` if no read
    allows it)."""
    writes = {(w.register, w.ts): w for w in history if w.kind == "write"}
    candidates = []
    for index, r in enumerate(history):
        if r.kind != "read":
            continue
        chain = versions[r.register]
        for (old_ts, old_value), (next_ts, _) in zip(chain, chain[1:]):
            if writes[(r.register, next_ts)].resp < r.inv:
                candidates.append((index, old_ts, old_value))
    if not candidates:
        return None
    index, old_ts, old_value = rng.choice(candidates)
    mutated = list(history)
    mutated[index] = dataclasses.replace(history[index], ts=old_ts, value=old_value)
    return mutated


class TestNoFalsePositivesOnLegalSchedules:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    def test_random_sequential_consistent_histories_accepted(self, seed, ops):
        """Generate a truly sequential schedule (non-overlapping ops in
        execution order) -- always linearizable."""
        rng = random.Random(seed)
        history = []
        t = 0.0
        version = -1
        for _ in range(ops):
            dur = rng.uniform(0.1, 2.0)
            if rng.random() < 0.5:
                version += 1
                history.append(write(version, t, t + dur))
            else:
                history.append(read(version, t, t + dur, pid=rng.randrange(1, 4)))
            t += dur + rng.uniform(0.01, 1.0)
        assert check_atomic_history(history).ok

    @given(st.integers(0, 2**32 - 1))
    def test_random_concurrent_histories_accepted_and_stale_reads_caught(self, seed):
        """Overlapping intervals linearized at hidden points are atomic;
        planting one stale read must be reported as exactly that."""
        rng = random.Random(seed)
        history, versions = _concurrent_schedule(rng)
        report = check_atomic_history(history)
        assert report.ok, report.summary()
        assert check_regular_history(history).ok
        mutated = _plant_stale_read(history, versions, rng)
        if mutated is not None:
            for checker in (check_atomic_history, check_regular_history):
                rules = {v.rule for v in checker(mutated).violations}
                assert "stale-read" in rules

    def test_concurrent_generator_overlaps_and_plants(self):
        """The generator really produces overlapping intervals and
        plantable reads on both register kinds (the property above is
        not vacuous)."""
        overlapped = planted = 0
        registers = set()
        for seed in range(50):
            rng = random.Random(seed)
            history, versions = _concurrent_schedule(rng)
            spans = sorted((op.inv, op.resp) for op in history)
            overlapped += any(b[0] < a[1] for a, b in zip(spans, spans[1:]))
            mutated = _plant_stale_read(history, versions, rng)
            if mutated is not None:
                planted += 1
                registers.update(
                    new.register for old, new in zip(history, mutated) if old != new
                )
        assert overlapped >= 40 and planted >= 10
        assert registers == {"S", "M"}
