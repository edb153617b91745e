"""Runner edge cases: task exhaustion, event caps, timer-vs-block races,
and analysis reuse across substrates."""

from __future__ import annotations

import pytest

from repro.analysis.timeline import build_timeline
from repro.apps.lease import lease_intervals
from repro.core.algorithm2 import BoundedOmega
from repro.core.algorithm1 import WriteEfficientOmega
from repro.core.interfaces import LocalStep, OmegaAlgorithm, SetTimer
from repro.core.runner import Run
from repro.memory.disk import Disk, LatencyModel
from repro.netsim.network import EventuallyTimelyLinks, FairLossyLinks
from repro.related.omega_tsource import TSourceOmega
from repro.sim.rng import RngRegistry


class FiniteTaskAlgorithm(OmegaAlgorithm):
    """Test double whose extra task terminates: the runner must drop it
    and keep the main task running."""

    display_name = "finite-task"
    uses_timer = False

    @classmethod
    def create_shared(cls, memory, n, config):
        return memory.create_array("X", n, initial=0)

    def __init__(self, ctx, shared):
        super().__init__(ctx, shared)
        self.extra_done = False
        self.main_steps = 0

    def main_task(self):
        while True:
            self.main_steps += 1
            yield LocalStep()

    def extra_tasks(self):
        return [self._finite()]

    def _finite(self):
        for _ in range(5):
            yield LocalStep()
        self.extra_done = True

    def peek_leader(self):
        return 0


class TimerDuringBlockAlgorithm(OmegaAlgorithm):
    """Arms a timer, then issues a long disk access; the expiry lands
    mid-block and the T3 task must run after the access completes."""

    display_name = "timer-during-block"

    @classmethod
    def create_shared(cls, memory, n, config):
        return memory.create_array("R", n, initial=0)

    def __init__(self, ctx, shared):
        super().__init__(ctx, shared)
        self.timer_ran_at = None
        self.read_done_at = None

    def initial_timeout(self):
        return 1.0  # fires while the first disk read is in flight

    def main_task(self):
        from repro.core.interfaces import ReadReg

        yield ReadReg(self.shared.register(self.pid))
        self.read_done_at = self.ctx.clock()
        while True:
            yield LocalStep()

    def timer_task(self):
        self.timer_ran_at = self.ctx.clock()
        yield LocalStep()

    def peek_leader(self):
        return 0


class TestTaskLifecycle:
    def test_finite_extra_task_dropped_main_continues(self):
        result = Run(FiniteTaskAlgorithm, n=2, seed=1, horizon=100.0).execute()
        for alg in result.algorithms:
            assert alg.extra_done
            assert alg.main_steps > 20


class TestTimerDuringDiskBlock:
    def test_expiry_midblock_is_deferred_not_lost(self):
        disk = Disk(LatencyModel(RngRegistry(2), lo=8.0, hi=10.0))
        result = Run(
            TimerDuringBlockAlgorithm, n=2, seed=2, horizon=100.0, disk=disk,
            sample_interval=10.0,
        ).execute()
        for alg in result.algorithms:
            assert alg.timer_ran_at is not None
            assert alg.read_done_at is not None
            # The timer fired at ~1 but its task could only *run* after
            # the blocking access (latency >= 8) released the process --
            # deferred, not lost, and never mid-block.
            assert alg.timer_ran_at >= 8.0
            assert alg.read_done_at >= 8.0


class TestAnalysisReuseAcrossSubstrates:
    """Trace-level analysis must work identically for MP runs."""

    @pytest.fixture(scope="class")
    def mp_result(self):
        rng = RngRegistry(1)
        links = EventuallyTimelyLinks(
            FairLossyLinks(rng, loss=0.2), sources={0}, gst=300.0, rng=rng
        )
        return Run(TSourceOmega, n=4, seed=1, horizon=4000.0, channel=links).execute()

    def test_timeline_on_mp_trace(self, mp_result):
        report = build_timeline(mp_result.trace, crash_plan=mp_result.crash_plan)
        assert set(report.intervals_by_pid) == set(range(4))
        assert all(end < mp_result.horizon * 0.5 for _, end in report.anarchy_intervals)

    def test_lease_on_mp_trace(self, mp_result):
        report = lease_intervals(mp_result.trace, length=200.0)
        stab = mp_result.stabilization(margin=200.0)
        assert stab.holds
        assert report.holders_at(mp_result.horizon - 10.0) == [stab.leader]


class TestLeaseOnBoundedOmega:
    def test_unique_holder_after_stabilization(self):
        result = Run(BoundedOmega, n=3, seed=55, horizon=6000.0).execute()
        stab = result.stabilization(margin=300.0)
        assert stab.holds
        report = lease_intervals(result.trace, length=200.0)
        assert report.holders_at(result.horizon - 10.0) == [stab.leader]


class TestHorizonSamplingConsistency:
    def test_every_correct_pid_sampled_at_horizon(self):
        result = Run(WriteEfficientOmega, n=3, seed=9, horizon=333.0).execute()
        at_horizon = {
            pid for t, pid, _ in result.trace.leader_samples() if t == 333.0
        }
        assert at_horizon == {0, 1, 2}


def both_families(values):
    """``(algorithm, value)`` cells for a shared-memory and a
    message-passing Omega; the shared-memory cells keep the plain value
    as their id."""
    return [pytest.param(WriteEfficientOmega, v, id=str(v)) for v in values] + [
        pytest.param(TSourceOmega, v, id=f"mp-{v}") for v in values
    ]


class TestIntervalValidation:
    """A zero ``sample_interval`` / ``snapshot_interval`` used to make
    the observer reschedule itself at ``now`` forever; non-positive and
    non-finite spans are rejected up front, naming the argument, for
    both algorithm families (one ``Run``, one ``check_run_shape``)."""

    @pytest.mark.parametrize("algorithm, value", both_families([0.0, -5.0, float("nan"), float("inf")]))
    def test_sample_interval_must_be_positive_and_finite(self, algorithm, value):
        with pytest.raises(ValueError, match="sample_interval"):
            Run(algorithm, n=3, horizon=50.0, sample_interval=value)

    @pytest.mark.parametrize("algorithm, value", both_families([0.0, -5.0, float("nan"), float("inf")]))
    def test_snapshot_interval_must_be_positive_and_finite(self, algorithm, value):
        with pytest.raises(ValueError, match="snapshot_interval"):
            Run(algorithm, n=3, horizon=50.0, snapshot_interval=value)

    @pytest.mark.parametrize("algorithm, value", both_families([0.0, -1.0, float("nan"), float("inf")]))
    def test_horizon_must_be_positive_and_finite(self, algorithm, value):
        with pytest.raises(ValueError, match="horizon"):
            Run(algorithm, n=3, horizon=value)

    @pytest.mark.parametrize("algorithm", [WriteEfficientOmega, TSourceOmega], ids=["shared", "mp"])
    def test_no_snapshots_and_small_intervals_stay_legal(self, algorithm):
        result = Run(
            algorithm, n=3, horizon=20.0, sample_interval=0.5, snapshot_interval=None
        ).execute()
        assert result.snapshots == []
        assert len(result.trace.leader_samples()) == 3 * 42  # t = 0, 0.5 .. 20 plus the horizon sample


class _BadAfter:
    """Step-delay model: ``good`` timely delays, then ``bad`` for ever."""

    def __init__(self, good, bad):
        self.good, self.bad = good, bad

    def delay(self, pid, now):
        if self.good:
            self.good -= 1
            return 1.0
        return self.bad


class TestStepDelayValidation:
    """The step loop files its own heap entries, so it refuses a bad
    delay itself: at the first step (``start``) and at a reschedule."""

    @pytest.mark.parametrize("good", [0, 2], ids=["first-step", "reschedule"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")], ids=["zero", "negative", "nan"])
    def test_non_positive_and_nan_delays_are_refused(self, good, bad):
        run = Run(WriteEfficientOmega, n=2, horizon=50.0, delay_model=_BadAfter(good, bad))
        with pytest.raises(ValueError, match="step-delay model returned non-positive or NaN delay"):
            run.execute()
