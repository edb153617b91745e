"""Outside-in tracing: spans and a profile, recorded from bench/ alone.

The program under test carries no tracing hooks yet, so this module
wraps a fixed list of its layer-boundary public callables.  Each call
becomes a span (name, start, end, parent, cell); a span's self time is
its duration minus the part its children cover.  ``Run.execute`` can
additionally run under ``cProfile`` so its self time is split by
``repro.<package>``.  Nothing is wrapped until :func:`install` runs, and
end-to-end numbers are never taken from a wrapped process.
"""

from __future__ import annotations

import cProfile
import functools
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from defs import PROFILED_PACKAGES


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: Optional[int]
    cell: Optional[str]
    end: float = 0.0
    #: Summed duration of direct children (they never overlap: one thread).
    covered: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.covered

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "cell": self.cell,
            "self": self.self_time,
        }


class Recorder:
    """In-memory span store plus the counts read at ``Run.execute``'s
    boundary (where the finished run's layers are all still reachable)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self.cell: Optional[str] = None
        #: Per finished run: the counters only a ``RunResult`` exposes.
        self.run_counts: List[Dict[str, float]] = []
        self.profile: Optional[cProfile.Profile] = None

    # ------------------------------------------------------------------
    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent, self.cell)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        assert popped is span, "spans must nest"
        if self._stack:
            self._stack[-1].covered += span.duration

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        cell_of: Optional[Callable[..., str]] = None,
    ) -> Callable[..., Any]:
        """``fn`` as a span; ``cell_of(*args)`` names the cell that the
        span and everything under it belong to."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self._stack:  # outside a pass: not ours to record
                return fn(*args, **kwargs)
            outer = self.cell
            if cell_of is not None:
                self.cell = cell_of(*args, **kwargs)
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)
                self.cell = outer

        return wrapper

    def wrap_execute(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``Run.execute``: a span, the optional profile, and the counts."""

        @functools.wraps(fn)
        def wrapper(run: Any, *args: Any, **kwargs: Any) -> Any:
            if not self._stack:
                return fn(run, *args, **kwargs)
            span = self.begin("execute")
            profile = self.profile
            try:
                if profile is None:
                    result = fn(run, *args, **kwargs)
                else:
                    profile.enable()
                    try:
                        result = fn(run, *args, **kwargs)
                    finally:
                        profile.disable()
            finally:
                self.end(span)
            self.run_counts.append(_counts_of(result))
            return result

        return wrapper

    # ------------------------------------------------------------------
    def total(self, name: str, spans: slice) -> float:
        """Summed duration of the spans called ``name`` within ``spans``."""
        return sum(s.duration for s in self.spans[spans] if s.name == name)

    def self_total(self, name: str, spans: slice) -> float:
        return sum(s.self_time for s in self.spans[spans] if s.name == name)


def _counts_of(result: Any) -> Dict[str, float]:
    memory = result.memory
    network = getattr(memory, "network", None)
    return {
        "events": result.sim.events_fired,
        "msgs_sent": 0 if network is None else network.total_sent,
        "msgs_dropped": 0 if network is None else network.dropped,
        "reads": getattr(memory, "reads_completed", 0),
        "writes": getattr(memory, "writes_completed", 0),
        "read_latency": getattr(memory, "read_op_latency", 0.0),
    }


def install(recorder: Recorder) -> None:
    """Wrap the layer-boundary callables in place (process-wide)."""
    from repro.core.runner import Run, RunResult
    from repro.engine import driver, store, summary, worker
    from repro.engine.summary import RunSummary
    from repro.faults import campaign
    from repro.fuzz import loop
    from repro.workloads import registry
    from repro.workloads.scenarios import Scenario

    for name, factory in list(registry.SCENARIO_FACTORIES.items()):
        registry.SCENARIO_FACTORIES[name] = recorder.wrap("factory", factory)
    Scenario.build = recorder.wrap("build", Scenario.build)
    Run.execute = recorder.wrap_execute(Run.execute)
    RunResult.summarize = recorder.wrap("summarize", RunResult.summarize)
    RunResult.audit_consistency = recorder.wrap("audit", RunResult.audit_consistency)
    RunSummary.canonical_json = recorder.wrap("canonical_json", RunSummary.canonical_json)
    summary.check_properties = recorder.wrap("check_properties", summary.check_properties)
    # The engine, fuzz and campaign paths call summarize_run through
    # their own module bindings, not through RunResult.summarize.
    for module in (worker, loop, campaign):
        module.summarize_run = recorder.wrap("summarize", module.summarize_run)
    driver.execute_cell = recorder.wrap(
        "execute_cell", driver.execute_cell, cell_of=lambda cell, *a, **k: "/".join(map(str, cell.key))
    )
    store.ResultStore.load = recorder.wrap("store_load", store.ResultStore.load)
    store.ResultStore.append = recorder.wrap("store_append", store.ResultStore.append)
    driver.run_experiment = loop.run_experiment = recorder.wrap("run_experiment", driver.run_experiment)
    loop.run_fuzz = recorder.wrap("run_fuzz", loop.run_fuzz)
    campaign.run_campaign = recorder.wrap("run_campaign", campaign.run_campaign)
    campaign.replay_plan = recorder.wrap(
        "replay_plan", campaign.replay_plan, cell_of=lambda plan, config, seed: f"plan/seed {seed}"
    )


def package_shares(profile: cProfile.Profile, events: int) -> Dict[str, float]:
    """Split the profile's self time by ``repro.<package>``."""
    self_time = {pkg: 0.0 for pkg in PROFILED_PACKAGES}
    other = 0.0
    calls = 0
    for entry in profile.getstats():
        calls += entry.callcount
        filename = getattr(entry.code, "co_filename", "")
        _, sep, tail = filename.replace("\\", "/").rpartition("/repro/")
        package = tail.split("/", 1)[0] if sep else ""
        if package in self_time:
            self_time[package] += entry.inlinetime
        else:
            other += entry.inlinetime
    total = sum(self_time.values()) + other
    out = {f"{pkg}.self_share": (t / total if total else 0.0) for pkg, t in self_time.items()}
    out["trace.other_self_share"] = other / total if total else 0.0
    out["trace.calls_per_event"] = calls / events if events else 0.0
    return out
