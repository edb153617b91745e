"""Access-pattern analysis on synthetic memory logs."""

from __future__ import annotations

import pytest

from repro.analysis.write_stats import (
    boundedness,
    forever_readers,
    forever_writers,
    growing_registers,
    single_writer_point,
    tail_written_registers,
)
from tests.conftest import memory_with


class TestForeverWriters:
    def test_continuous_writer_detected(self):
        writes = [(float(t), 0, "R", t) for t in range(0, 400, 10)]
        writes += [(5.0, 1, "Q", 1)]  # early one-off writer
        memory = memory_with(writes)
        assert forever_writers(memory, horizon=400.0, window=100.0, count=4) == frozenset({0})

    def test_window_validation(self):
        memory = memory_with([(0.0, 0, "R", 1)])
        with pytest.raises(ValueError):
            forever_writers(memory, horizon=10.0, window=100.0, count=4)
        with pytest.raises(ValueError):
            forever_writers(memory, horizon=400.0, window=-1.0)

    def test_gap_in_one_window_excludes(self):
        # pid 0 writes everywhere except [200, 300).
        writes = [(float(t), 0, "R", t) for t in list(range(0, 200, 10)) + list(range(300, 400, 10))]
        memory = memory_with(writes)
        assert forever_writers(memory, horizon=400.0, window=100.0, count=4) == frozenset()


class TestForeverReaders:
    def test_continuous_reader_detected(self):
        reads = [(float(t), 2, "R") for t in range(0, 400, 10)]
        memory = memory_with([(0.0, 0, "R", 1)], reads)
        assert forever_readers(memory, horizon=400.0, window=100.0, count=4) == frozenset({2})


class TestSingleWriterPoint:
    def test_reached(self):
        writes = [(float(t), 1, "R", t) for t in range(0, 500, 10)]
        writes += [(50.0, 0, "Q", 1), (120.0, 2, "Q2", 1)]
        memory = memory_with(writes)
        point = single_writer_point(memory, horizon=500.0, tail=100.0)
        assert point.reached
        assert point.writer == 1
        assert point.time == 120.0

    def test_not_reached_with_two_tail_writers(self):
        writes = [(float(t), 0, "R", t) for t in range(0, 500, 10)]
        writes += [(float(t), 1, "Q", t) for t in range(0, 500, 10)]
        memory = memory_with(writes)
        assert not single_writer_point(memory, horizon=500.0, tail=100.0).reached


class TestTailWrittenRegisters:
    def test_filters_by_time(self):
        writes = [(10.0, 0, "EARLY", 1)] + [(float(t), 0, "LATE", t) for t in range(400, 500, 10)]
        memory = memory_with(writes)
        assert tail_written_registers(memory, horizon=500.0, tail=150.0) == frozenset({"LATE"})


class TestBoundedness:
    def test_growing_register_flagged(self):
        writes = [(float(t), 0, "G", t) for t in range(0, 1000, 10)]
        memory = memory_with(writes)
        verdicts = boundedness(memory, horizon=1000.0)
        assert verdicts["G"].still_growing

    def test_plateaued_register_not_flagged(self):
        writes = [(float(t), 0, "P", min(t, 100)) for t in range(0, 1000, 10)]
        memory = memory_with(writes)
        assert not boundedness(memory, horizon=1000.0)["P"].still_growing

    def test_boolean_register_never_growing(self):
        writes = [(float(t), 0, "B", (t // 10) % 2 == 0) for t in range(0, 1000, 10)]
        memory = memory_with(writes)
        verdict = boundedness(memory, horizon=1000.0)["B"]
        assert not verdict.still_growing
        assert verdict.distinct_values == 2

    def test_max_value_and_counts(self):
        writes = [(0.0, 0, "R", 5), (10.0, 0, "R", 3)]
        memory = memory_with(writes)
        verdict = boundedness(memory, horizon=1000.0)["R"]
        assert verdict.max_value == 5.0
        assert verdict.writes == 2
        assert verdict.last_write_time == 10.0

    def test_tail_fraction_validation(self):
        memory = memory_with([(0.0, 0, "R", 1)])
        with pytest.raises(ValueError):
            boundedness(memory, horizon=10.0, tail_fraction=1.5)

    def test_growing_registers_helper(self):
        writes = [(float(t), 0, "G", t) for t in range(0, 1000, 10)]
        writes += [(float(t), 1, "P", 7) for t in range(0, 1000, 10)]
        memory = memory_with(writes)
        assert growing_registers(memory, horizon=1000.0) == frozenset({"G"})
