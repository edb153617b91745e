"""One judge per run: ``summarize_run`` flattens the single
``check_properties`` judgement into its census columns.

* a **pass budget** in the style of ``tests/core/test_call_budget.py``:
  the summarizer never expands the run-length leader samples into rows
  (the judges read the trace's change points) and walks the write log
  at most twice (the judge once, plus the suspicion census), so the
  next per-cell pass someone adds fails here in a second;
* the **two edges** where the census and the theorem verdicts used to be
  derived separately and disagreed, pinned on hand-built runs: a write
  at exactly ``t == horizon``, and a crash planned beyond the horizon.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.analysis.write_stats import forever_writers, single_writer_point
from repro.core.algorithm1 import WriteEfficientOmega
from repro.core.runner import RunResult
from repro.engine.summary import summarize_run
from repro.sim.crash import CrashPlan
from repro.sim.tracing import RunTrace
from repro.workloads.scenarios import nominal, nominal_emulated_atomic
from tests.conftest import memory_with


class CountingList(list):
    """A list that counts how often it is walked from the start."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


#: The trace queries that expand change points into rows.
EXPANSIONS = ("leader_samples", "leader_samples_by_pid", "sample_times")


@pytest.mark.parametrize(
    "scenario",
    [
        pytest.param(nominal(n=4, horizon=500.0), id="shared"),
        pytest.param(nominal_emulated_atomic(n=3, horizon=500.0), id="emulated-atomic"),
    ],
)
def test_summarizer_never_expands_the_samples(scenario, monkeypatch):
    result = scenario.run(WriteEfficientOmega, seed=0, log_reads=False, trace_events=False)
    options = dict(scenario_name=scenario.name, margin=scenario.margin, assumption=scenario.assumption)
    expected = summarize_run(result, **options)

    expanded = []

    def counted(name, query):
        def expand(trace):
            expanded.append(name)
            return query(trace)

        return expand

    for name in EXPANSIONS:
        monkeypatch.setattr(RunTrace, name, counted(name, getattr(RunTrace, name)))
    assert len(result.trace.leader_samples()) > 100 and expanded == ["leader_samples"]
    expanded.clear()
    writes = result.memory.write_log = CountingList(result.memory.write_log)
    assert len(writes) > 20
    summary = summarize_run(result, **options)
    print(f"{scenario.name}: {len(expanded)} expansion(s) of the samples, {writes.walks} walk(s) of the write log")
    assert summary == expected
    assert expanded == []
    assert 1 <= writes.walks <= 2


# ----------------------------------------------------------------------
class _HandBuiltAlg:
    """The little of an algorithm instance the summarizer reads."""

    claimed_theorems = frozenset({1, 2, 3, 4})
    requires_assumption = "awb"
    leader_invocations = 1
    max_leader_ops = 0

    def __init__(self, pid: int) -> None:
        self.pid = pid


def hand_built_result(writes, samples, crash_plan, horizon) -> RunResult:
    """A finished run made of (time, pid, reg, value) writes and
    (time, pid, leader) samples."""
    trace = RunTrace()
    for t, pid, leader in samples:
        trace.record_leader_sample(t, pid, leader)
    return RunResult(
        algorithm_name="hand-built",
        n=crash_plan.n,
        horizon=horizon,
        seed=0,
        trace=trace,
        memory=memory_with(writes),
        sim=SimpleNamespace(events_fired=0),
        crash_plan=crash_plan,
        algorithms=[_HandBuiltAlg(pid) for pid in range(crash_plan.n)],
        timer_service=None,
        disk=None,
    )


def test_a_write_at_the_horizon_belongs_to_the_newest_window():
    """Edge (a): the newest census window is closed at the horizon."""
    writes = [(t, 0, "PROGRESS[0]", int(t)) for t in (50.0, 150.0, 250.0, 400.0)]
    samples = [(t, pid, 0) for t in (0.0, 200.0, 400.0) for pid in (0, 1)]
    result = hand_built_result(writes, samples, CrashPlan.none(2), horizon=400.0)

    summary = summarize_run(result, window=100.0)
    assert summary.forever_writers == frozenset({0}) and summary.forever_writer_count == 1
    assert summary.single_writer
    props = result.check_properties(window=100.0)
    _, _, single, optimal = props.measured
    assert single.tail_writers == optimal.forever_writers == (0,)
    assert props.verdict(3).holds and props.verdict(4).holds
    assert summary.properties == props and summary.property_violations == 0
    # ... and the per-figure views read the same windows.
    assert forever_writers(result.memory, 400.0, window=100.0) == frozenset({0})
    assert single_writer_point(result.memory, 400.0, tail=100.0).writer == 0


def test_a_crash_planned_beyond_the_horizon_never_happened():
    """Edge (b): faulty for the leadership verdict iff crash time <= horizon."""
    samples = [(t, pid, pid) for t in (0.0, 10.0, 20.0) for pid in (0, 1)]
    result = hand_built_result([], samples, CrashPlan.single(2, 1, 50.0), horizon=20.0)

    report = result.stabilization()
    props = result.check_properties(window=5.0)
    assert not report.holds and report.leader is None
    assert not props.verdict(1).holds and "disagree" in props.verdict(1).detail
    assert result.final_leaders() == report.final_by_pid == {0: 0, 1: 1}
    assert props.measured[0].final_by_pid == {0: 0, 1: 1}

    # A crash at or before the horizon did happen: p1's samples stop counting.
    crashed = hand_built_result([], samples, CrashPlan.single(2, 1, 20.0), horizon=20.0)
    assert crashed.stabilization().holds and crashed.final_leaders() == {0: 0}
    assert crashed.check_properties(window=5.0).measured[0].holds
