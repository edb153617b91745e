"""The observer's cached column sums agree with a from-scratch re-sum.

``peek_leader`` reads ``RegisterMatrix.column_sums()``, a vector that is
recomputed only after a member register changed.  These tests replay
whole runs with a checking ``peek_leader`` patched in at the class level
(so subclasses that call ``super().peek_leader()`` are checked too): at
every sampling instant the returned leader must equal the pre-cache
formula -- every candidate's column re-summed through ``peek`` -- and
the recorded ``leader_sample`` rows must be exactly the checked values.
"""

from __future__ import annotations

import pytest

from repro.core.algorithm1 import WriteEfficientOmega
from repro.core.algorithm2 import BoundedOmega
from repro.core.exploration import LazyLeaderOmega
from repro.core.lexmin import lexmin_pair
from repro.core.mutants import BlindProcessOmega, MutedLeaderOmega
from repro.core.runner import Run
from repro.core.variants import MultiWriterOmega, StepCounterOmega
from repro.memory.emulated import EmulatedMemory
from repro.sim.crash import CrashPlan
from repro.workloads.scenarios import (
    chaotic_timers,
    leader_crash,
    leader_crash_emulated,
    nominal,
    nominal_emulated,
    scrambled,
)


def resummed_leader(alg) -> int:
    """``leader()`` with every candidate column re-summed from ``peek``."""
    pairs = []
    for k in sorted(alg.candidates):
        total = sum(alg.shared.suspicions.peek(j, k) for j in range(alg.n))
        pairs.append((total, k))
    return lexmin_pair(pairs)[1]


@pytest.fixture
def checked(monkeypatch):
    """Patch both matrix-based ``peek_leader``s to check themselves;
    yields the list of ``(pid, leader)`` pairs they returned."""
    returned = []

    def checking(cached_peek_leader):
        def peek_leader(self):
            expected = resummed_leader(self)
            leader = cached_peek_leader(self)
            assert leader == expected, (
                f"p{self.pid} at t={self.ctx.clock()}: cached sums "
                f"{self.shared.suspicions.column_sums()} elect {leader}, a re-sum elects {expected}"
            )
            returned.append((self.pid, leader))
            return leader

        return peek_leader

    for cls in (WriteEfficientOmega, BoundedOmega):
        monkeypatch.setattr(cls, "peek_leader", checking(cls.peek_leader))
    return returned


def _assert_every_sample_was_checked(result, returned):
    samples = [(pid, leader) for _, pid, leader in result.trace.leader_samples()]
    assert len(samples) > 50
    assert samples == returned


#: Scenario and whether it must make SUSPICIONS change mid-run (a crashed
#: or falsely suspected leader), i.e. dirty the cache under the observer.
SCENARIOS = [
    (nominal(n=4, horizon=1500.0), False),
    (scrambled(n=4, horizon=1500.0), False),
    (nominal_emulated(n=3, horizon=1500.0), False),
    (chaotic_timers(n=4, horizon=1500.0), True),
    (leader_crash(n=4, horizon=1500.0), True),
    (leader_crash_emulated(n=3, horizon=1500.0), True),
]


def _suspicion_writes(result) -> int:
    return sum(rec.register.startswith("SUSPICIONS") for rec in result.memory.write_log)


@pytest.mark.parametrize("algorithm", [WriteEfficientOmega, BoundedOmega])
@pytest.mark.parametrize("scenario, dirties", SCENARIOS, ids=[scenario.name for scenario, _ in SCENARIOS])
def test_every_sample_equals_the_resummed_formula(checked, scenario, dirties, algorithm):
    result = scenario.run(algorithm, seed=7, log_reads=False, trace_events=False)
    _assert_every_sample_was_checked(result, checked)
    if dirties:
        assert _suspicion_writes(result) > 0


def test_scrambled_initial_values_reach_the_first_sample(checked):
    """``scramble`` pokes the registers after the matrix exists; the
    very first sample must already see the scrambled sums."""
    run = scrambled(n=4, horizon=100.0).build(WriteEfficientOmega, seed=3)
    sums = run.algorithms[0].shared.suspicions
    assert sums.column_sums() == [sum(sums.peek_column(k)) for k in range(4)]
    assert any(sums.column_sums())  # seed 3 scrambles at least one entry away from 0
    result = run.execute()
    assert [(pid, leader) for _, pid, leader in result.trace.leader_samples()] == checked


@pytest.mark.parametrize(
    "algorithm, config",
    [
        (MutedLeaderOmega, {"muted_pid": 0, "mute_after": 400.0}),
        (BlindProcessOmega, {"blind_pid": 1, "blind_after": 300.0}),
        (LazyLeaderOmega, {"lazy_after": 10}),
        (StepCounterOmega, {}),
    ],
    ids=["muted-leader", "blind-process", "lazy-leader", "step-counter"],
)
def test_subclasses_reach_the_cache_through_super(checked, algorithm, config):
    result = Run(
        algorithm, n=4, seed=11, horizon=1500.0, algo_config=config,
        crash_plan=CrashPlan.single(4, 0, 600.0),
    ).execute()  # fmt: skip
    # Each recorded sample is what the subclass answered; whenever it
    # deferred to Algorithm 1's observer, that answer was checked.
    samples = [(pid, leader) for _, pid, leader in result.trace.leader_samples()]
    assert len(checked) > 50 and set(checked) <= set(samples)


@pytest.mark.parametrize("atomic_increment", [True, False])
def test_fetch_add_mirror_on_the_emulated_backend(atomic_increment):
    """The multi-writer variant keeps ``SUSPICIONS`` in nWnR registers
    outside any matrix: the emulated backend's fetch&add completion
    pokes the local mirror, and the observer must follow it."""
    scenario = leader_crash_emulated(n=3, horizon=1500.0)
    scenario.algo_config["atomic_increment"] = atomic_increment
    run = scenario.build(MultiWriterOmega, seed=5)
    seen = []
    for alg in run.algorithms:
        def peek_leader(alg=alg, cached=alg.peek_leader):
            leader = cached()
            counters = [(int(alg.shared.suspicions[k].peek()), k) for k in sorted(alg.candidates)]
            assert leader == lexmin_pair(counters)[1]
            seen.append((alg.pid, leader))
            return leader

        alg.peek_leader = peek_leader
    result = run.execute()
    assert isinstance(result.memory, EmulatedMemory)
    assert [(pid, leader) for _, pid, leader in result.trace.leader_samples()] == seen
    assert _suspicion_writes(result) > 0
