"""Shared steps allocate no operations: every ``ReadReg`` is prebuilt.

Both paper algorithms build one ``ReadReg`` per register when
``create_shared`` lays the registers out; task T1's column reads, T3's
``STOP`` / ``PROGRESS`` reads and Algorithm 2's ``LAST`` reads yield
those objects.  A traced run's read log is columnar, so a logged read
builds no ``ReadRecord`` either, and a fast read makes no call into
``repro/memory/memory.py`` at all: the register's own counter is the
run's one read count.  Constructions and calls are counted by code
object through ``cProfile.getstats()`` -- ``pstats`` would file the
dataclass ``__init__`` under a shared ``<string>`` row.

A run also records each fact once: the timer service keeps one lane
token per pid (the behaviours' histories are the timer record), and the
trace keeps one 8-byte time per observer pass plus one change point per
leader change, not a row per sample.  The retained-bytes test pins that
with ``tracemalloc``: the timer service holds the same bytes at every
horizon, and the trace at most 10 B per leader sample it expands to.

A finished run frees itself: ``Run.execute`` releases the reference
cycles an event-driven run needs while it runs, so dropping the result
frees every log by reference counting alone.  The last test runs every
registered scenario with the collector off and asks it what it would
have had to free; the message-passing runs of both related-work Omegas
are held to the same rule (their network routes, process runtimes and
``mp-timer`` lane are released by the same step).
"""

from __future__ import annotations

import cProfile
import gc
import inspect
import os
import tracemalloc
from collections import Counter

import pytest

from repro.core.algorithm1 import WriteEfficientOmega
from repro.core.algorithm2 import BoundedOmega
from repro.core.interfaces import ReadReg
from repro.core.runner import Run
from repro.memory.memory import ReadRecord
from repro.netsim.network import EventuallyTimelyLinks, FairLossyLinks
from repro.related.omega_pattern import PatternOmega, pattern_friendly_links
from repro.related.omega_tsource import TSourceOmega
from repro.sim.rng import RngRegistry
from repro.workloads.registry import SCENARIO_REGISTRY
from repro.workloads.scenarios import nominal, nominal_emulated

N = 4
MEMORY_MODULE = os.path.join("repro", "memory", "memory.py")


def constructions(profile: cProfile.Profile, cls: type) -> int:
    """How many ``cls`` objects the profiled code built."""
    init = cls.__init__.__code__
    return sum(entry.callcount for entry in profile.getstats() if entry.code is init)


def yielded_reads(task) -> list:
    """Every ``ReadReg`` one task yields, answering each operation with 0."""
    reads = []
    try:
        op = next(task)
        while True:
            if type(op) is ReadReg:
                reads.append(op)
            op = task.send(0)
    except StopIteration:
        return reads


@pytest.mark.parametrize("algorithm", [WriteEfficientOmega, BoundedOmega], ids=["alg1", "alg2"])
def test_a_fast_shared_run_builds_no_read_op_after_setup(algorithm):
    build = cProfile.Profile()
    run = build.runcall(nominal(n=N, horizon=500.0).build, algorithm, seed=0, log_reads=False, trace_events=False)
    # The layout built its reads (the counter sees them) ...
    assert constructions(build, ReadReg) >= N * N
    execute = cProfile.Profile()
    result = execute.runcall(run.execute)
    # ... and thousands of read steps later there is not one more.
    assert result.memory.total_reads > 1000
    assert constructions(execute, ReadReg) == 0


@pytest.mark.parametrize("algorithm", [WriteEfficientOmega, BoundedOmega], ids=["alg1", "alg2"])
def test_a_fast_read_makes_no_memory_call(algorithm):
    run = nominal(n=N, horizon=500.0).build(algorithm, seed=0, log_reads=False, trace_events=False)
    execute = cProfile.Profile()
    result = execute.runcall(run.execute)
    # A fast read stays inside its register; only a write (one append
    # to the write log) calls into the memory.
    calls = sum(
        entry.callcount
        for entry in execute.getstats()
        if getattr(entry.code, "co_filename", "").endswith(MEMORY_MODULE)
    )
    assert result.memory.total_reads > 1000
    assert calls == result.memory.total_writes > 0


@pytest.mark.parametrize(
    "scenario, algorithm",
    [
        (nominal(n=N, horizon=500.0), WriteEfficientOmega),
        (nominal(n=N, horizon=500.0), BoundedOmega),
        (nominal_emulated(n=3, horizon=500.0), WriteEfficientOmega),
    ],
    ids=["shared-alg1", "shared-alg2", "emulated-alg1"],
)
def test_a_traced_run_builds_no_read_record(scenario, algorithm):
    run = scenario.build(algorithm, seed=0)
    assert run.memory.log_reads
    execute = cProfile.Profile()
    result = execute.runcall(run.execute)
    # Every read went into the log's columns ...
    assert len(result.memory.read_log) > 500
    # ... and not one of them as a record while the run was executing.
    assert constructions(execute, ReadRecord) == 0


@pytest.mark.parametrize("algorithm", [WriteEfficientOmega, BoundedOmega], ids=["alg1", "alg2"])
def test_processes_share_one_read_op_per_register(algorithm):
    run = nominal(n=N, horizon=500.0).build(algorithm, seed=0)
    by_pid = []
    for alg in run.algorithms:
        reads = yielded_reads(alg.leader_query()) + yielded_reads(alg.timer_task())
        by_pid.append({op.register: op for op in reads})
    shared = 0
    for pid, mine in enumerate(by_pid):
        for other in by_pid[pid + 1 :]:
            for register in mine.keys() & other.keys():
                assert mine[register] is other[register], register.name
                shared += 1
    assert shared > 0


def retained_by_module(scenario, algorithm, modules):
    """Bytes still held after a fast run, by allocating module, and the
    run's leader-sample count."""
    run = scenario.build(algorithm, seed=0, log_reads=False, trace_events=False)
    tracemalloc.start()
    try:
        result = run.execute()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = {}
    for module in modules:
        pattern = "*" + os.sep + os.path.join("repro", *module.split("/"))
        traces = snapshot.filter_traces([tracemalloc.Filter(True, pattern)])
        held[module] = sum(stat.size for stat in traces.statistics("filename"))
    return held, len(result.trace.leader_samples())


@pytest.mark.parametrize("algorithm", [WriteEfficientOmega, BoundedOmega], ids=["alg1", "alg2"])
def test_timers_and_trace_retain_only_the_leader_samples(algorithm):
    modules = ("timers/service.py", "sim/tracing.py")
    held = {}
    for horizon in (1000.0, 4000.0):
        held[horizon], samples = retained_by_module(nominal(n=N, horizon=horizon), algorithm, modules)
        per_sample = held[horizon]["sim/tracing.py"] / samples
        print(f"{algorithm.display_name} horizon {horizon:.0f}: {held[horizon]} bytes, {per_sample:.0f} B/sample")
        assert per_sample <= 10
    # The timer service holds one token per pid, whatever the horizon.
    assert held[1000.0]["timers/service.py"] == held[4000.0]["timers/service.py"]


#: Every registered scenario under Algorithm 1, plus Algorithm 2 on the
#: nominal cell (its ``LAST`` matrix and hand-shake writes).
CYCLE_CELLS = [(name, WriteEfficientOmega) for name in SCENARIO_REGISTRY] + [("nominal", BoundedOmega)]


def run_cell(name: str, algorithm, fast: bool, horizon: float = 1000.0) -> None:
    """Execute and summarize one short cell, then drop everything."""
    factory = SCENARIO_REGISTRY[name][0]
    scenario = factory(horizon=horizon) if "horizon" in inspect.signature(factory).parameters else factory()
    options = {"log_reads": False, "trace_events": False} if fast else {}
    scenario.run(algorithm, seed=0, **options).summarize(scenario_name=scenario.name)


def cyclic_garbage(cell) -> Counter:
    """``repro`` objects, by class, that only the cycle collector could
    free after ``cell()`` ran with the collector disabled."""
    gc.collect()
    gc.disable()
    try:
        cell()
        start = len(gc.garbage)
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            found = Counter(
                type(obj).__qualname__
                for obj in gc.garbage[start:]
                if type(obj).__module__.startswith("repro.")
            )
        finally:
            gc.set_debug(0)
            del gc.garbage[start:]
    finally:
        gc.enable()
    return found


@pytest.fixture(scope="module")
def warmed_up():
    """One cell first, so first-use imports and caches are not judged."""
    run_cell("nominal", WriteEfficientOmega, fast=True)


@pytest.mark.parametrize("mode", ["fast", "traced"])
@pytest.mark.parametrize(
    "name, algorithm", CYCLE_CELLS, ids=[f"{name}-{alg.display_name.split('-')[0]}" for name, alg in CYCLE_CELLS]
)
def test_a_finished_run_leaves_no_cyclic_garbage(warmed_up, name, algorithm, mode):
    found = cyclic_garbage(lambda: run_cell(name, algorithm, fast=mode == "fast"))
    assert not found, f"{name} ({mode}) left reference cycles: {dict(found)}"


def _tsource_cell() -> None:
    rng = RngRegistry(1)
    links = EventuallyTimelyLinks(FairLossyLinks(rng, loss=0.2), sources={0}, gst=300.0, rng=rng)
    Run(TSourceOmega, n=4, seed=1, horizon=1000.0, channel=links).execute().stabilization()


def _pattern_cell() -> None:
    links = pattern_friendly_links(RngRegistry(1), winner=0)
    Run(PatternOmega, n=4, seed=1, horizon=1000.0, channel=links).execute().stabilization()


@pytest.mark.parametrize("cell", [_tsource_cell, _pattern_cell], ids=["tsource", "pattern"])
def test_a_finished_message_passing_run_leaves_no_cyclic_garbage(warmed_up, cell):
    found = cyclic_garbage(cell)
    assert not found, f"left reference cycles: {dict(found)}"
