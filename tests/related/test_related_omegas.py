"""The related-work message-passing Omegas (Section 1's two families)."""

from __future__ import annotations

import pytest

from repro.analysis.omega_props import check_validity
from repro.core.runner import Run
from repro.netsim.network import EventuallyTimelyLinks, FairLossyLinks
from repro.related.omega_pattern import PatternOmega, pattern_friendly_links
from repro.related.omega_tsource import TSourceOmega
from repro.sim.crash import CrashPlan
from repro.sim.rng import RngRegistry


def tsource_links(seed, sources, gst=300.0, loss=0.2):
    rng = RngRegistry(seed)
    return EventuallyTimelyLinks(
        FairLossyLinks(rng, loss=loss), sources=sources, gst=gst, rng=rng
    )


class TestTSourceOmega:
    @pytest.fixture(scope="class")
    def result(self):
        return Run(
            TSourceOmega, n=4, seed=1, horizon=4000.0, channel=tsource_links(1, {0})
        ).execute()

    def test_stabilizes_on_the_source(self, result):
        report = result.stabilization(margin=200.0)
        assert report.holds
        assert report.leader == 0

    def test_validity(self, result):
        assert check_validity(result.trace, result.n)

    def test_source_accusations_bounded(self, result):
        """The t-source analogue of Lemma 2: accusations of the timely
        source stop growing."""
        counts = [proc.accusations[0] for proc in result.algorithms]
        assert max(counts) < 50

    def test_timeout_backoff_occurred(self, result):
        """Fair-lossy links force false accusations; the doubling must
        have kicked in somewhere."""
        initial = 8.0
        assert any(
            proc.timeout[j] > initial
            for proc in result.algorithms
            for j in range(result.n)
            if j != proc.pid
        )

    def test_messages_flow_forever(self, result):
        """Heartbeats never stop -- the message-passing cost the paper's
        write-efficient algorithm avoids in shared memory."""
        assert set(result.network.sent_by_pid) == set(range(result.n))

    def test_exact_counters(self, result):
        """Exact counters, pinned: a runtime change that moves one event,
        message or verdict shows here."""
        assert result.sim.events_fired == 32_088
        assert result.sim.fired_by_kind == {"message": 20_223, "mp-timer": 11_064, "sample": 801}
        network = result.network
        assert (network.total_sent, network.dropped, network.delivered) == (24_000, 3_704, 20_223)
        report = result.stabilization()
        assert (report.leader, report.settle_time, report.churn) == (0, 850.0, 15)

    def test_survives_source_crash_with_second_source(self):
        result = Run(
            TSourceOmega,
            n=4,
            seed=3,
            horizon=9000.0,
            channel=tsource_links(3, {0, 1}),
            crash_plan=CrashPlan.single(4, 0, 2000.0),
        ).execute()
        report = result.stabilization(margin=200.0)
        assert report.holds
        assert report.leader == 1
        # Pinned exact counters (see test_exact_counters).
        assert result.sim.events_fired == 59_255
        assert (result.network.total_sent, result.network.dropped) == (43_497, 5_630)
        assert report.settle_time == 4450.0

    def test_without_source_still_valid_and_often_lucky(self):
        """Pure fair-lossy links (no t-source): the *guarantee* is
        gone, but the exponential timeout back-off tames probabilistic
        loss in practice (each false accusation doubles the window, so
        the per-link accusation probability vanishes).  The run must
        stay valid; whoever it settles on must be correct.  The
        assumption buys the worst-case guarantee, not the typical run
        -- the same relationship the AWB scenarios show in shared
        memory."""
        rng = RngRegistry(9)
        result = Run(
            TSourceOmega,
            n=4,
            seed=9,
            horizon=4000.0,
            channel=FairLossyLinks(rng, loss=0.3),
        ).execute()
        assert check_validity(result.trace, result.n)
        report = result.stabilization(margin=200.0)
        if report.holds:
            assert report.leader_correct
        # False accusations did happen (the channel is lossy)...
        assert any(max(p.accusations) > 0 for p in result.algorithms)
        # ...and the back-off kicked in.
        assert any(
            proc.timeout[j] > 8.0
            for proc in result.algorithms
            for j in range(result.n)
            if j != proc.pid
        )


class TestPatternOmega:
    @pytest.fixture(scope="class")
    def result(self):
        rng = RngRegistry(2)
        return Run(
            PatternOmega,
            n=4,
            seed=2,
            horizon=4000.0,
            channel=pattern_friendly_links(rng, winner=0),
        ).execute()

    def test_stabilizes_on_the_winner(self, result):
        report = result.stabilization(margin=200.0)
        assert report.holds
        assert report.leader == 0

    def test_exact_counters(self, result):
        """Pinned like the t-source run's (see its test_exact_counters)."""
        assert result.sim.events_fired == 16_204
        network = result.network
        assert (network.total_sent, network.delivered, network.dropped) == (15_420, 15_403, 0)
        report = result.stabilization()
        assert (report.leader, report.settle_time) == (0, 0.0)

    def test_time_free_no_timers_used(self, result):
        """The pattern approach sets no timers at all."""
        assert "mp-timer" not in result.sim.fired_by_kind

    def test_winner_misses_bounded(self, result):
        counts = [proc.misses[0] for proc in result.algorithms]
        assert max(counts) == 0  # strictly fastest responder never misses

    def test_slow_processes_accumulate_misses(self, result):
        assert any(max(proc.misses[1:]) > 0 for proc in result.algorithms)

    def test_rounds_progress(self, result):
        assert all(proc.seq > 50 for proc in result.algorithms)

    def test_t_validation(self):
        with pytest.raises(ValueError):
            Run(PatternOmega, n=3, seed=1, horizon=10.0, algo_config={"t": 3}).execute()


class TestCrossModelComparison:
    """The three models elect leaders under *incomparable* assumptions --
    the observation the paper's related-work section makes."""

    def test_all_three_families_elect(self):
        from repro.core.algorithm1 import WriteEfficientOmega
        from repro.workloads.scenarios import awb_only

        shm = awb_only(n=4).run(WriteEfficientOmega, seed=5)
        assert shm.stabilization(margin=100.0).holds

        ts = Run(
            TSourceOmega, n=4, seed=1, horizon=4000.0, channel=tsource_links(1, {0})
        ).execute()
        assert ts.stabilization(margin=200.0).holds

        rng = RngRegistry(2)
        pat = Run(
            PatternOmega, n=4, seed=2, horizon=4000.0,
            channel=pattern_friendly_links(rng, winner=0),
        ).execute()
        assert pat.stabilization(margin=200.0).holds
