"""Algorithm 2 (Figure 5): bounded memory, hand-shake, Theorems 6-8."""

from __future__ import annotations

import pytest

from repro.analysis.omega_props import check_termination, check_validity
from repro.analysis.write_stats import (
    boundedness,
    forever_readers,
    forever_writers,
    growing_registers,
    tail_written_registers,
)
from repro.core.algorithm2 import BoundedOmega
from repro.core.runner import Run
from repro.sim.crash import CrashPlan

HORIZON = 6000.0
MARGIN = 400.0


@pytest.fixture(scope="module")
def nominal_result():
    return Run(BoundedOmega, n=4, seed=50, horizon=HORIZON).execute()


@pytest.fixture(scope="module")
def crash_result():
    plan = CrashPlan.single(4, 0, HORIZON * 0.55)
    return Run(BoundedOmega, n=4, seed=51, horizon=HORIZON * 1.5, crash_plan=plan).execute()


class TestTheorem1StillHolds:
    def test_stabilizes_on_correct_common_leader(self, nominal_result):
        report = nominal_result.stabilization(margin=MARGIN)
        assert report.holds and report.leader_correct

    def test_reelects_after_leader_crash(self, crash_result):
        report = crash_result.stabilization(margin=MARGIN)
        assert report.holds
        assert report.leader != 0


class TestTheorem6AllVariablesBounded:
    def test_no_register_still_growing(self, nominal_result):
        assert growing_registers(nominal_result.memory, nominal_result.horizon) == frozenset()

    def test_progress_and_last_are_boolean(self, nominal_result):
        for name, verdict in boundedness(nominal_result.memory, nominal_result.horizon).items():
            if name.startswith(("PROGRESS", "LAST", "STOP")):
                assert verdict.distinct_values <= 2, name

    def test_suspicions_plateau(self, nominal_result):
        horizon = nominal_result.horizon
        tail = [
            rec
            for rec in nominal_result.memory.writes_in(horizon * 0.8, horizon)
            if rec.register.startswith("SUSPICIONS")
        ]
        assert tail == []


class TestTheorem7MinimalWriterSet:
    def test_tail_registers_are_handshake_pairs_of_leader(self, nominal_result):
        leader = nominal_result.stabilization(margin=MARGIN).leader
        tail_regs = tail_written_registers(nominal_result.memory, nominal_result.horizon, tail=400.0)
        for name in tail_regs:
            assert name.startswith((f"PROGRESS[{leader}][", f"LAST[{leader}][")), name

    def test_leader_row_handshake_written_forever(self, nominal_result):
        """PROGRESS[ell][i] (by the leader) and LAST[ell][i] (by p_i)
        keep being written."""
        leader = nominal_result.stabilization(margin=MARGIN).leader
        tail_regs = tail_written_registers(nominal_result.memory, nominal_result.horizon, tail=400.0)
        others = [k for k in range(nominal_result.n) if k != leader]
        for k in others:
            assert f"PROGRESS[{leader}][{k}]" in tail_regs

    def test_all_correct_processes_write_forever(self, nominal_result):
        """Corollary 1's price, paid by design: the writer census is the
        full correct set."""
        writers = forever_writers(nominal_result.memory, nominal_result.horizon, window=400.0)
        assert writers == frozenset(range(nominal_result.n))

    def test_after_crash_only_correct_processes_write(self, crash_result):
        writers = forever_writers(crash_result.memory, crash_result.horizon, window=400.0)
        assert writers == crash_result.crash_plan.correct


class TestHandshakeMechanics:
    def test_last_written_only_by_column_owner(self, nominal_result):
        """LAST[i][k] is owned (and thus written) by p_k alone."""
        n = nominal_result.n
        for rec in nominal_result.memory.write_log:
            if rec.register.startswith("LAST["):
                row, col = (int(x) for x in rec.register[5:-1].split("]["))
                assert rec.pid == col

    def test_progress_written_only_by_row_owner(self, nominal_result):
        for rec in nominal_result.memory.write_log:
            if rec.register.startswith("PROGRESS["):
                row = int(rec.register.split("[")[1].rstrip("]"))
                assert rec.pid == row

    def test_signal_semantics_alternate(self, nominal_result):
        """Values written to one PROGRESS[l][k] register alternate
        True/False -- each write raises a fresh signal."""
        leader = nominal_result.stabilization(margin=MARGIN).leader
        k = next(i for i in range(nominal_result.n) if i != leader)
        name = f"PROGRESS[{leader}][{k}]"
        history = [rec.value for rec in nominal_result.memory.write_log if rec.register == name]
        # The leader re-writes the raised value until the partner
        # acknowledges (line 8.R2 is unconditional), so the raw history
        # has repeats; the *transitions* must strictly alternate.
        deduped = [history[0]]
        for v in history[1:]:
            if v != deduped[-1]:
                deduped.append(v)
        assert len(deduped) >= 4  # the hand-shake keeps toggling
        assert all(deduped[i] != deduped[i + 1] for i in range(len(deduped) - 1))


class TestOmegaSpecification:
    def test_validity(self, nominal_result):
        assert check_validity(nominal_result.trace, nominal_result.n)

    def test_termination_witness(self, nominal_result):
        assert check_termination(nominal_result.algorithms, nominal_result.crash_plan).ok

    def test_everyone_reads_forever(self, nominal_result):
        readers = forever_readers(nominal_result.memory, nominal_result.horizon, window=400.0)
        assert readers == frozenset(range(nominal_result.n))


class TestSelfStabilization:
    def test_converges_from_scrambled_registers(self):
        from repro.workloads.scenarios import scramble_registers

        result = Run(
            BoundedOmega, n=3, seed=52, horizon=HORIZON, scramble=scramble_registers
        ).execute()
        report = result.stabilization(margin=MARGIN)
        assert report.holds and report.leader_correct
