"""Algorithm 1 (Figure 2): the paper's lemmas and theorems, measured.

Each test names the paper statement it checks.  Runs use generous
horizons relative to the scenario knobs so the eventual properties are
visible in the trace tail.
"""

from __future__ import annotations

import pytest

from repro.analysis.omega_props import check_termination, check_validity
from repro.analysis.write_stats import (
    forever_readers,
    forever_writers,
    growing_registers,
    single_writer_point,
    tail_written_registers,
)
from repro.core.algorithm1 import WriteEfficientOmega
from repro.core.runner import Run
from repro.sim.crash import CrashPlan


@pytest.fixture(scope="module")
def nominal_result():
    """One shared long fault-free run (module-scoped: it is reused by
    several property checks, which read different aspects of it)."""
    return Run(WriteEfficientOmega, n=4, seed=42, horizon=2000.0).execute()


@pytest.fixture(scope="module")
def crash_result():
    """A run where the stable leader crashes mid-way."""
    plan = CrashPlan.single(4, 0, 600.0)
    return Run(WriteEfficientOmega, n=4, seed=43, horizon=2400.0, crash_plan=plan).execute()


class TestTheorem1EventualLeadership:
    def test_stabilizes_on_correct_common_leader(self, nominal_result):
        report = nominal_result.stabilization(margin=200.0)
        assert report.holds
        assert report.leader_correct

    def test_all_correct_processes_agree(self, nominal_result):
        report = nominal_result.stabilization(margin=200.0)
        finals = set(report.final_by_pid.values())
        assert finals == {report.leader}

    def test_reelects_after_leader_crash(self, crash_result):
        report = crash_result.stabilization(margin=200.0)
        assert report.holds
        assert report.leader != 0
        assert report.leader_correct


class TestLemma1CrashedLeaveCandidates:
    def test_faulty_process_leaves_all_candidate_sets_forever(self, crash_result):
        for alg in crash_result.algorithms:
            if alg.pid == 0:
                continue  # the crashed process's own state is irrelevant
            assert 0 not in alg.candidates

    def test_faulty_process_never_readded(self, crash_result):
        """After the crash, last_i[0] equals PROGRESS[0] forever, so the
        line-17 test stays false: 0 can never re-enter candidates."""
        final_progress = crash_result.memory.register("PROGRESS[0]").peek()
        for alg in crash_result.algorithms:
            if alg.pid != 0:
                assert alg.last[0] == final_progress


class TestLemma2BoundedSuspicions:
    def test_leader_suspicions_bounded(self, nominal_result):
        """SUSPICIONS[j][ell] stops growing: no write to any entry of the
        leader's column lands in the tail half of the run."""
        leader = nominal_result.stabilization(margin=200.0).leader
        horizon = nominal_result.horizon
        tail_writes = [
            rec
            for rec in nominal_result.memory.writes_in(horizon / 2, horizon)
            if rec.register.startswith("SUSPICIONS") and rec.register.endswith(f"[{leader}]")
        ]
        assert tail_writes == []

    def test_own_suspicion_entry_never_written(self, nominal_result):
        """T3 skips k = i, so SUSPICIONS[i][i] is never increased."""
        n = nominal_result.n
        for i in range(n):
            assert nominal_result.memory.register(f"SUSPICIONS[{i}][{i}]").peek() == 0


class TestTheorem2AllButOneBounded:
    def test_only_leader_progress_still_grows(self, nominal_result):
        leader = nominal_result.stabilization(margin=200.0).leader
        growing = growing_registers(nominal_result.memory, nominal_result.horizon)
        assert growing == frozenset({f"PROGRESS[{leader}]"})

    def test_leader_progress_grows_without_bound(self, nominal_result):
        """PROGRESS[ell] keeps increasing: its maximum in the tail
        exceeds its maximum in the first half."""
        leader = nominal_result.stabilization(margin=200.0).leader
        history = [
            (rec.time, rec.value)
            for rec in nominal_result.memory.write_log
            if rec.register == f"PROGRESS[{leader}]"
        ]
        horizon = nominal_result.horizon
        first_half = [v for t, v in history if t < horizon / 2]
        tail = [v for t, v in history if t >= horizon / 2]
        assert tail and first_half
        assert max(tail) > max(first_half)

    def test_suspicion_values_plateau(self, nominal_result):
        """Every SUSPICIONS entry reaches a final value and stays there."""
        horizon = nominal_result.horizon
        tail_writes = [
            rec
            for rec in nominal_result.memory.writes_in(horizon * 0.75, horizon)
            if rec.register.startswith("SUSPICIONS")
        ]
        assert tail_writes == []


class TestTheorem3SingleWriter:
    def test_eventually_single_writer(self, nominal_result):
        point = single_writer_point(nominal_result.memory, nominal_result.horizon, tail=300.0)
        assert point.reached
        assert point.writer == nominal_result.stabilization(margin=200.0).leader

    def test_single_writer_writes_single_register(self, nominal_result):
        leader = nominal_result.stabilization(margin=200.0).leader
        tail_regs = tail_written_registers(nominal_result.memory, nominal_result.horizon, tail=300.0)
        assert tail_regs == frozenset({f"PROGRESS[{leader}]"})

    def test_forever_writers_is_leader_singleton(self, nominal_result):
        writers = forever_writers(nominal_result.memory, nominal_result.horizon, window=200.0)
        assert writers == frozenset({nominal_result.stabilization(margin=200.0).leader})


class TestLemma6EveryoneReadsForever:
    def test_all_correct_processes_read_forever(self, nominal_result):
        readers = forever_readers(nominal_result.memory, nominal_result.horizon, window=200.0)
        assert readers == frozenset(range(nominal_result.n))


class TestOmegaSpecification:
    def test_validity(self, nominal_result):
        assert check_validity(nominal_result.trace, nominal_result.n)

    def test_termination_witness(self, nominal_result):
        report = check_termination(nominal_result.algorithms, nominal_result.crash_plan)
        assert report.ok

    def test_self_always_candidate(self, nominal_result):
        for alg in nominal_result.algorithms:
            assert alg.pid in alg.candidates


class TestSelfStabilization:
    """Footnote 7: arbitrary initial shared values are tolerated."""

    def test_converges_from_scrambled_registers(self):
        from repro.workloads.scenarios import scramble_registers

        result = Run(
            WriteEfficientOmega, n=4, seed=44, horizon=2500.0, scramble=scramble_registers
        ).execute()
        report = result.stabilization(margin=200.0)
        assert report.holds and report.leader_correct

    def test_converges_with_partial_initial_candidates(self):
        result = Run(
            WriteEfficientOmega,
            n=4,
            seed=45,
            horizon=2500.0,
            algo_config={"initial_candidates": [0]},
        ).execute()
        report = result.stabilization(margin=200.0)
        assert report.holds and report.leader_correct
