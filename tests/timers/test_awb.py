"""Timer behaviour models: chaos, domination, history recording."""

from __future__ import annotations

import pytest

from repro.timers.awb import (
    AccurateTimer,
    AsymptoticallyWellBehavedTimer,
    CappedTimer,
)
from repro.timers.functions import LinearF, check_f3_domination
from tests.conftest import make_rng


class TestAccurateTimer:
    def test_duration_equals_timeout(self):
        timer = AccurateTimer()
        assert timer.duration(0, 10.0, 5.0) == 5.0

    def test_history_recorded(self):
        timer = AccurateTimer()
        timer.duration(0, 1.0, 2.0)
        timer.duration(0, 3.0, 4.0)
        assert timer.history == [(1.0, 2.0, 2.0), (3.0, 4.0, 4.0)]

    def test_zero_timeout_still_positive(self):
        assert AccurateTimer().duration(0, 0.0, 0.0) > 0


class TestAsymptoticallyWellBehavedTimer:
    def _timer(self, chaos_until=100.0, **kw):
        return AsymptoticallyWellBehavedTimer(
            LinearF(1.0), make_rng(7), chaos_until=chaos_until, **kw
        )

    def test_chaotic_prefix_ignores_timeout(self):
        timer = self._timer(chaos_until=100.0, chaos_lo=0.05, chaos_hi=2.0)
        durations = [timer.duration(0, 10.0, x) for x in (1.0, 100.0, 10000.0)]
        assert all(0.05 <= d <= 2.0 for d in durations)

    def test_chaotic_prefix_can_fire_early(self):
        """The whole point: before tau_f a timer set to a huge timeout
        may expire almost immediately (causing false suspicions)."""
        timer = self._timer(chaos_until=100.0, chaos_hi=1.0)
        assert timer.duration(0, 0.0, 1e9) <= 1.0

    def test_dominates_f_after_chaos(self):
        timer = self._timer(chaos_until=100.0, jitter=0.5)
        for x in (1.0, 3.0, 10.0, 50.0):
            d = timer.duration(0, 200.0, x)
            assert d >= x  # f(x) = x

    def test_f3_holds_on_full_history(self):
        timer = self._timer(chaos_until=100.0)
        for tau in (0.0, 50.0, 150.0, 300.0):
            for x in (1.0, 5.0, 20.0):
                timer.duration(0, tau, x)
        assert check_f3_domination(LinearF(1.0), timer.history, tau_f=100.0, x_f=0.0)

    def test_not_monotone_after_chaos(self):
        """Figure 1: T_R may wiggle, it only has to stay above f."""
        timer = self._timer(chaos_until=0.0, jitter=1.0)
        durations = [timer.duration(0, 10.0, 5.0) for _ in range(64)]
        assert len(set(durations)) > 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AsymptoticallyWellBehavedTimer(LinearF(1.0), make_rng(1), chaos_lo=2.0, chaos_hi=1.0)
        with pytest.raises(ValueError):
            AsymptoticallyWellBehavedTimer(LinearF(1.0), make_rng(1), jitter=-0.1)


class TestCappedTimer:
    def test_never_exceeds_cap(self):
        timer = CappedTimer(make_rng(5), cap=3.0)
        for x in (1.0, 10.0, 1e6):
            assert timer.duration(0, 0.0, x) <= 3.0

    def test_violates_f3_for_divergent_f(self):
        timer = CappedTimer(make_rng(5), cap=3.0)
        for x in (10.0, 100.0, 1000.0):
            timer.duration(0, 500.0, x)
        assert not check_f3_domination(LinearF(1.0), timer.history, tau_f=0.0, x_f=5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CappedTimer(make_rng(1), cap=1.0, lo=2.0)
