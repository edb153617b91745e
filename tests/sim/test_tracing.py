"""Run traces: recording and querying the observer's leader samples.

The trace stores change points, not rows; every query must still give
exactly what the appended row list gives, and the judges that read only
the change points must give the verdict a row-by-row fold gives.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.omega_props import check_validity
from repro.core.algorithm1 import WriteEfficientOmega
from repro.props.checkers import StabilizationMonitor, leadership_verdict
from repro.sim.crash import CrashPlan
from repro.sim.tracing import RunTrace
from repro.workloads.scenarios import nominal

N = 5


def trace_of(rows) -> RunTrace:
    trace = RunTrace()
    for t, pid, leader in rows:
        trace.record_leader_sample(t, pid, leader)
    return trace


class TestRunLength:
    """A settled run's samples repeat, and the trace keeps only changes."""

    def test_a_traced_run_stores_change_points_not_rows(self):
        scenario = nominal(n=16, horizon=8000.0)
        result = scenario.run(WriteEfficientOmega, seed=0)
        trace = result.trace
        verdict = result.stabilization(margin=scenario.margin)
        rows = trace.leader_samples()
        sampled = len(trace.leader_samples_by_pid())
        stored = len(trace.leader_changes())
        print(f"{len(rows)} rows, {stored} change points ({verdict.churn_all} changes, {sampled} pids)")
        assert verdict.holds and sampled == 16
        # One point per pid's first sample plus one per output change ...
        assert stored == verdict.churn_all + sampled
        # ... a small fraction of the rows they expand to.
        assert stored * 20 < len(rows)


class TestLeaderSampleHelpers:
    def _trace(self) -> RunTrace:
        return trace_of([(0.0, 0, 1), (0.0, 1, 1), (5.0, 0, 0), (5.0, 1, 0)])

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


# ----------------------------------------------------------------------
# Property: any append sequence round-trips, and the judges agree
# ----------------------------------------------------------------------
TIMES = (0.0, 5.0, 10.0, 12.5, 20.0)
LEADERS = st.one_of(st.integers(0, 2), st.integers(-1, N))


@st.composite
def observer_rows(draw):
    """Rows shaped like an observer's: ticks in time order, each over a
    pid subset in any order (pids drop out and come back), often one
    extra tick at the last tick's time, as a run's horizon sample."""
    rows = []
    time = 0.0
    for _ in range(draw(st.integers(0, 8))):
        time += draw(st.sampled_from((0.0, 2.5, 5.0)))
        pids = draw(st.lists(st.integers(0, N - 1), unique=True, max_size=N))
        rows += [(time, pid, draw(LEADERS)) for pid in pids]
    if rows and draw(st.booleans()):
        pids = draw(st.lists(st.integers(0, N - 1), unique=True, min_size=1, max_size=N))
        rows += [(time, pid, draw(LEADERS)) for pid in pids]
    return rows


ROWS = st.one_of(
    observer_rows(),
    # Anything at all: times out of order, a pid twice at one time.
    st.lists(st.tuples(st.sampled_from(TIMES), st.integers(0, N - 1), LEADERS), max_size=30),
)

CRASH_PLANS = st.dictionaries(
    st.integers(0, N - 1), st.sampled_from((0.0, 5.0, 11.0, 20.0, 30.0)), max_size=N - 1
).map(lambda times: CrashPlan(N, times))


def reference_verdict(rows, crash_plan, horizon, margin):
    """Theorem 1 folded row by row, as the judge did over the row list."""
    monitor = StabilizationMonitor(horizon, margin=margin)
    for pid, t in crash_plan.crash_times.items():
        if t <= horizon:
            monitor.observe_crash(t, pid)
    for t, pid, leader in rows:
        monitor.observe_sample(t, pid, leader)
    return monitor.finish()


@st.composite
def observer_passes(draw):
    """The observer's way in: passes over a pid subset, possibly empty,
    each writing only the pids whose leader changed since their last
    sample.  Returns the trace and the rows it stands for."""
    trace, rows, last = RunTrace(), [], {}
    time = 0.0
    for _ in range(draw(st.integers(0, 8))):
        time += draw(st.sampled_from((0.0, 2.5, 5.0)))
        pids = draw(st.lists(st.integers(0, N - 1), unique=True, max_size=N))
        trace.open_tick(time, pids)
        for pid in pids:
            leader = draw(LEADERS)
            rows.append((time, pid, leader))
            if pid not in last or last[pid] != leader:
                last[pid] = leader
                trace.record_change(pid, leader)
    return trace, rows


class TestAnyAppendSequence:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(observer_passes())
    def test_observer_passes_expand_to_their_rows(self, observed):
        trace, rows = observed
        assert trace.leader_samples() == rows
        times = []
        for t, _, _ in rows:
            if not times or t != times[-1]:
                times.append(t)
        assert trace.sample_times() == times
        assert check_validity(trace, N) == all(0 <= leader < N for _, _, leader in rows)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(ROWS)
    def test_queries_expand_to_the_appended_rows(self, rows):
        trace = trace_of(rows)
        assert trace.leader_samples() == rows
        by_pid = {}
        for t, pid, leader in rows:
            by_pid.setdefault(pid, []).append((t, leader))
        assert trace.leader_samples_by_pid() == by_pid
        assert list(trace.leader_samples_by_pid()) == list(by_pid)
        times = []
        for t, _, _ in rows:
            if not times or t != times[-1]:
                times.append(t)
        assert trace.sample_times() == times

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(ROWS, CRASH_PLANS, st.sampled_from((20.0, 25.0)), st.sampled_from((0.0, 5.0, 15.0)))
    def test_judges_read_the_change_points_as_they_read_the_rows(self, rows, crash_plan, horizon, margin):
        trace = trace_of(rows)
        verdict = leadership_verdict(trace, crash_plan, horizon, margin=margin)
        reference = reference_verdict(rows, crash_plan, horizon, margin)
        assert verdict == reference
        assert list(verdict.final_by_pid) == list(reference.final_by_pid)
        assert check_validity(trace, N) == all(0 <= leader < N for _, _, leader in rows)
