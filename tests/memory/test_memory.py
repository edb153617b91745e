"""SharedMemory: namespace, access logs, window queries, snapshots."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memory.memory import MAX_REGISTERS, ReadRecord, SharedMemory


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def memory(clock: FakeClock) -> SharedMemory:
    return SharedMemory(clock=clock)


class TestNamespace:
    def test_create_and_lookup(self, memory):
        memory.create_register("R", owner=0)
        assert memory.register("R").name == "R"

    def test_duplicate_name_rejected(self, memory):
        memory.create_register("R", owner=0)
        with pytest.raises(ValueError):
            memory.create_register("R", owner=1)

    def test_mwmr_shares_namespace(self, memory):
        memory.create_mwmr("M")
        with pytest.raises(ValueError):
            memory.create_register("M", owner=0)

    def test_names_sorted(self, memory):
        memory.create_register("B", owner=0)
        memory.create_register("A", owner=0)
        memory.create_mwmr("C")
        assert memory.names() == ["A", "B", "C"]

    def test_array_and_matrix_registration(self, memory):
        memory.create_array("ARR", 2)
        memory.create_matrix("MAT", 2)
        assert "ARR[0]" in memory.names()
        assert "MAT[1][0]" in memory.names()

    def test_all_registers(self, memory):
        memory.create_register("A", owner=0)
        memory.create_mwmr("B")
        assert [r.name for r in memory.all_registers()] == ["A", "B"]


class TestRegisterIds:
    """The read log's register column holds 16-bit ids, one per register."""

    def test_a_register_past_the_id_column_is_refused(self, memory):
        memory.create_array("R", MAX_REGISTERS)
        last = memory.register(f"R[{MAX_REGISTERS - 1}]")
        last.read(7)
        assert memory.read_log == [ReadRecord(0.0, 7, last.name)]
        for create in (lambda: memory.create_register("X", owner=None), lambda: memory.create_mwmr("X")):
            with pytest.raises(ValueError, match=f"at most {MAX_REGISTERS} registers"):
                create()
        assert "X" not in memory.names()


class TestAccessAccounting:
    def test_write_log_records(self, memory, clock):
        reg = memory.create_register("R", owner=0)
        clock.now = 3.0
        reg.write(0, 7)
        (rec,) = memory.write_log
        assert (rec.time, rec.pid, rec.register, rec.value) == (3.0, 0, "R", 7)

    def test_read_log_records(self, memory, clock):
        reg = memory.create_register("R", owner=0)
        clock.now = 4.0
        reg.read(2)
        (rec,) = memory.read_log
        assert (rec.time, rec.pid, rec.register) == (4.0, 2, "R")

    def test_totals(self, memory):
        reg = memory.create_register("R", owner=0)
        reg.write(0, 1)
        reg.read(1)
        reg.read(2)
        assert memory.total_writes == 1
        assert memory.total_reads == 2

    def test_read_logging_can_be_disabled(self, clock):
        memory = SharedMemory(clock=clock, log_reads=False)
        reg = memory.create_register("R", owner=0)
        reg.read(1)
        assert memory.total_reads == reg.read_count == 1
        with pytest.raises(RuntimeError):
            memory.reads_in(0.0, 1.0)
        # An empty reader set would read as "Lemma 6 violated".
        with pytest.raises(RuntimeError):
            memory.readers_in(0.0, 1.0)


class TestWindowQueries:
    def _populate(self, memory, clock):
        reg_a = memory.create_register("A", owner=0)
        reg_b = memory.create_register("B", owner=1)
        for t, reg, pid in [(1.0, reg_a, 0), (5.0, reg_b, 1), (9.0, reg_a, 0)]:
            clock.now = t
            reg.write(pid, t)
        return reg_a, reg_b

    def test_writes_in_half_open(self, memory, clock):
        self._populate(memory, clock)
        assert [r.time for r in memory.writes_in(1.0, 9.0)] == [1.0, 5.0]

    def test_writers_in(self, memory, clock):
        self._populate(memory, clock)
        assert memory.writers_in(0.0, 2.0) == frozenset({0})
        assert memory.writers_in(0.0, 10.0) == frozenset({0, 1})

    def test_registers_written_in(self, memory, clock):
        self._populate(memory, clock)
        assert memory.registers_written_in(4.0, 6.0) == frozenset({"B"})

    def test_readers_in(self, memory, clock):
        reg_a, _ = self._populate(memory, clock)
        clock.now = 7.0
        reg_a.read(3)
        assert memory.readers_in(6.0, 8.0) == frozenset({3})

    def test_value_history(self, memory, clock):
        self._populate(memory, clock)
        history = [(rec.time, rec.value) for rec in memory.write_log if rec.register == "A"]
        assert history == [(1.0, 1.0), (9.0, 9.0)]

    def test_critical_write_times(self, memory, clock):
        crit = memory.create_register("C", owner=0, critical=True)
        plain = memory.create_register("P", owner=0, critical=False)
        clock.now = 2.0
        crit.write(0, 1)
        clock.now = 3.0
        plain.write(0, 1)
        clock.now = 6.0
        crit.write(0, 2)
        assert memory.critical_write_times(0) == [2.0, 6.0]


class TestSnapshots:
    def test_snapshot_is_hashable_and_complete(self, memory):
        memory.create_register("A", owner=0, initial=1)
        memory.create_mwmr("B", initial=True)
        snap = memory.snapshot()
        assert snap == (("A", 1), ("B", True))
        hash(snap)  # must be hashable (Theorem 5 recurrence counting)

    def test_snapshot_reflects_writes(self, memory):
        reg = memory.create_register("A", owner=0, initial=0)
        before = memory.snapshot()
        reg.write(0, 5)
        after = memory.snapshot()
        assert before != after
        assert dict(after)["A"] == 5


class TestWindowQueryProperty:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=40)
    )
    def test_partition_of_write_log(self, times):
        clock = FakeClock()
        memory = SharedMemory(clock=clock)
        reg = memory.create_register("R", owner=0)
        for t in sorted(times):
            clock.now = t
            reg.write(0, t)
        mid = 50.0
        left = memory.writes_in(0.0, mid)
        right = memory.writes_in(mid, 101.0)
        assert len(left) + len(right) == len(times)


#: One access: (time step, "read" | "write" | "fetch-add", pid, register).
#: Zero steps give equal-time runs, as a simulator batch does.
ACCESSES = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.25]),
        st.sampled_from(["read", "read", "write", "fetch-add"]),
        st.integers(min_value=0, max_value=3),
        st.sampled_from(["A", "B", "M"]),
    ),
    max_size=60,
)


class TestColumnarReadLog:
    """The read columns answer every query as a plain record list would."""

    @staticmethod
    def _replay(accesses):
        """Apply ``accesses`` to a fresh memory; return it with the
        reference read log built from plain records."""
        clock = FakeClock()
        memory = SharedMemory(clock=clock)
        registers = {
            "A": memory.create_register("A", owner=None),
            "B": memory.create_register("B", owner=None),
            "M": memory.create_mwmr("M"),
        }
        reference = []
        for step, kind, pid, name in accesses:
            clock.now += step
            register = registers[name]
            if kind == "write":
                register.write(pid, clock.now)
                continue
            if kind == "read" or name != "M":
                register.read(pid)
            else:
                register.fetch_add(pid)
            reference.append(ReadRecord(clock.now, pid, name))
        return memory, reference

    @given(ACCESSES, st.data())
    def test_queries_match_a_record_list(self, accesses, data):
        memory, reference = self._replay(accesses)
        assert memory.read_log == reference
        assert memory.read_log is not memory.read_log  # a fresh list each time
        times = [rec.time for rec in reference] or [0.0]
        bound = st.one_of(
            st.sampled_from(times), st.floats(min_value=-5.0, max_value=max(times) + 5.0)
        )
        windows = st.one_of(st.tuples(bound, bound), bound.map(lambda t: (t, t)))
        for t0, t1 in data.draw(st.lists(windows, min_size=1, max_size=8)):
            expected = [rec for rec in reference if t0 <= rec.time < t1]
            assert memory.reads_in(t0, t1) == expected
            assert memory.readers_in(t0, t1) == frozenset(rec.pid for rec in expected)
            if t0 >= t1:
                assert expected == []
