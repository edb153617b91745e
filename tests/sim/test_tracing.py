"""Run traces: recording and querying the observer's leader samples."""

from __future__ import annotations

from repro.sim.tracing import RunTrace


class TestColumnarHotKinds:
    """The sample rows are the trace's one column, handed out as is."""

    def test_leader_samples_returns_internal_sequence_no_copy(self):
        trace = RunTrace()
        trace.record_leader_sample(1.0, 0, 1)
        assert trace.leader_samples() is trace.leader_samples()


class TestLeaderSampleHelpers:
    def _trace(self) -> RunTrace:
        trace = RunTrace()
        trace.record_leader_sample(0.0, 0, 1)
        trace.record_leader_sample(0.0, 1, 1)
        trace.record_leader_sample(5.0, 0, 0)
        trace.record_leader_sample(5.0, 1, 0)
        return trace

    def test_leader_samples(self):
        assert self._trace().leader_samples() == [
            (0.0, 0, 1),
            (0.0, 1, 1),
            (5.0, 0, 0),
            (5.0, 1, 0),
        ]

    def test_leader_samples_by_pid(self):
        by_pid = self._trace().leader_samples_by_pid()
        assert by_pid[0] == [(0.0, 1), (5.0, 0)]
        assert by_pid[1] == [(0.0, 1), (5.0, 0)]

    def test_sample_times_deduplicated(self):
        assert self._trace().sample_times() == [0.0, 5.0]
