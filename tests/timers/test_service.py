"""The kernel-attached timer service."""

from __future__ import annotations

import pytest

from repro.sim.kernel import Simulator
from repro.timers.awb import AccurateTimer
from repro.timers.service import TimerService


def make_service(n: int = 2):
    sim = Simulator()
    service = TimerService(sim, {pid: AccurateTimer() for pid in range(n)})
    return sim, service


class TestTimerService:
    def test_fires_after_behaviour_duration(self):
        sim, service = make_service()
        fired = []
        service.set_timer(0, 5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_rearming_cancels_previous(self):
        sim, service = make_service()
        fired = []
        service.set_timer(0, 5.0, lambda: fired.append("first"))
        service.set_timer(0, 10.0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["second"]

    def test_timers_of_different_pids_independent(self):
        sim, service = make_service()
        fired = []
        service.set_timer(0, 5.0, lambda: fired.append(0))
        service.set_timer(1, 3.0, lambda: fired.append(1))
        sim.run()
        assert fired == [1, 0]

    def test_cancel(self):
        sim, service = make_service()
        fired = []
        service.set_timer(0, 5.0, lambda: fired.append("x"))
        service.cancel(0)
        sim.run()
        assert fired == []

    def test_cancel_unknown_pid_is_noop(self):
        _, service = make_service()
        service.cancel(99)

    def test_history_records_set_time_timeout_duration(self):
        sim, service = make_service()
        service.set_timer(0, 5.0, lambda: None)
        sim.run()
        assert service.behavior(0).history == [(0.0, 5.0, 5.0)]
        assert service.behavior(1).history == []

    def test_behavior_lookup(self):
        _, service = make_service()
        assert isinstance(service.behavior(0), AccurateTimer)
        with pytest.raises(KeyError):
            service.behavior(42)

    def test_rearm_from_callback(self):
        sim, service = make_service()
        fired = []

        def on_fire():
            fired.append(sim.now)
            if len(fired) < 3:
                service.set_timer(0, 2.0, on_fire)

        service.set_timer(0, 2.0, on_fire)
        sim.run()
        assert fired == [2.0, 4.0, 6.0]
