"""Message-passing processes under ``Run``: handlers, timers, crash semantics."""

from __future__ import annotations

import gc
import types

import pytest

from repro.core.algorithm1 import WriteEfficientOmega
from repro.core.runner import Run
from repro.memory.disk import Disk, LatencyModel
from repro.memory.memory import SharedMemory
from repro.netsim.network import Message, TimelyLinks
from repro.netsim.runtime import MpProcess
from repro.sim.crash import CrashPlan
from repro.sim.rng import RngRegistry
from repro.sim.schedulers import UniformDelay
from repro.timers.awb import AsymptoticallyWellBehavedTimer
from repro.timers.functions import LinearF
from repro.timers.service import TimerService


class EchoProcess(MpProcess):
    """Test double: pid 0 pings everyone, peers pong back."""

    display_name = "echo"

    def __init__(self, pid, n, config):
        super().__init__(pid, n, config)
        self.pings = 0
        self.pongs = 0
        self.timer_fires = 0

    def on_start(self):
        if self.pid == 0:
            self.broadcast("PING")
        self.set_timer("tick", 10.0)

    def on_message(self, message: Message):
        if message.kind == "PING":
            self.pings += 1
            self.send(message.sender, "PONG")
        elif message.kind == "PONG":
            self.pongs += 1

    def on_timer(self, tag):
        self.timer_fires += 1
        self.set_timer("tick", 10.0)

    def peek_leader(self):
        return 0


class TestRuntime:
    def test_ping_pong_roundtrip(self):
        result = Run(EchoProcess, n=3, seed=1, horizon=50.0).execute()
        assert result.algorithms[0].pongs == 2
        assert result.algorithms[1].pings == 1

    def test_timers_repeat(self):
        result = Run(EchoProcess, n=2, seed=1, horizon=100.0).execute()
        assert result.algorithms[0].timer_fires == pytest.approx(10, abs=2)

    def test_needs_two_processes(self):
        with pytest.raises(ValueError):
            Run(EchoProcess, n=1)

    def test_a_channel_needs_a_message_passing_algorithm(self):
        with pytest.raises(ValueError, match="channel"):
            Run(WriteEfficientOmega, n=2, channel=TimelyLinks(RngRegistry(0)))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("delay_model", UniformDelay(RngRegistry(0), 0.5, 1.5)),
            ("timer_behaviors", {0: AsymptoticallyWellBehavedTimer(LinearF(1.0), RngRegistry(0))}),
            ("scramble", lambda memory, rng: None),
            ("disk", Disk(LatencyModel(RngRegistry(0)))),
            ("memory", "emulated"),
            ("emulation", {"replicas": 3}),
            ("snapshot_interval", 10.0),
        ],
    )
    def test_a_message_passing_algorithm_refuses_shared_memory_arguments(self, name, value):
        # Each used to be accepted and ignored (an unused EmulatedMemory,
        # empty snapshots): the run fired the same events as without it.
        with pytest.raises(ValueError, match=f"message-passing .*: got {name}$"):
            Run(EchoProcess, n=2, horizon=50.0, **{name: value})

    def test_a_message_passing_run_builds_no_register_substrate(self):
        run = Run(EchoProcess, n=3, seed=1, horizon=50.0)
        seen, frontier = {id(run)}, [run]
        while frontier:  # every object the run reaches, not through classes or code
            for ref in gc.get_referents(frontier.pop()):
                if id(ref) not in seen and not isinstance(ref, (type, types.ModuleType, types.FunctionType)):
                    seen.add(id(ref))
                    frontier.append(ref)
                    assert not isinstance(ref, (UniformDelay, SharedMemory, TimerService)), ref
        result = run.execute()
        assert result.memory is None and result.timer_service is None

    def test_theorems_2_to_4_refuse_a_message_passing_run(self):
        result = Run(EchoProcess, n=3, seed=1, horizon=50.0).execute()
        assert result.stabilization().holds
        for judge in (result.check_properties, result.summarize):
            with pytest.raises(ValueError, match="Theorems 2-4 concern shared-memory registers"):
                judge()

    def test_deterministic(self):
        a = Run(EchoProcess, n=3, seed=5, horizon=100.0).execute()
        b = Run(EchoProcess, n=3, seed=5, horizon=100.0).execute()
        assert a.trace.leader_samples() == b.trace.leader_samples()
        assert a.network.total_sent == b.network.total_sent

    def test_timer_validation(self):
        run = Run(EchoProcess, n=2, seed=1, horizon=10.0)
        with pytest.raises(ValueError):
            run.algorithms[0].set_timer("bad", 0.0)

    def test_every_delivery_is_counted_once(self):
        result = Run(EchoProcess, n=4, seed=1, horizon=100.0).execute()
        assert result.network.delivered == result.sim.fired_by_kind["message"] == 6

    def test_a_finished_run_is_released(self):
        result = Run(EchoProcess, n=3, seed=1, horizon=50.0).execute()
        assert result.sim.pending() == 0
        assert all(proc._runtime is None for proc in result.algorithms)
        with pytest.raises(KeyError, match="no route"):
            result.network.send(0, 1, "PING", None)


class TestCrashSemantics:
    def test_crashed_process_handles_nothing(self):
        plan = CrashPlan.single(3, 1, 5.0)
        result = Run(
            EchoProcess, n=3, seed=2, horizon=100.0, crash_plan=plan
        ).execute()
        # pid 1 stops firing timers after its crash at t=5.
        assert result.algorithms[1].timer_fires == 0

    def test_crashed_process_not_sampled(self):
        plan = CrashPlan.single(3, 2, 7.0)
        result = Run(EchoProcess, n=3, seed=2, horizon=50.0, crash_plan=plan).execute()
        late = [(t, pid) for t, pid, _ in result.trace.leader_samples() if t > 10 and pid == 2]
        assert late == []

    def test_initially_crashed_process_never_starts(self):
        plan = CrashPlan.single(2, 1, 0.0)
        result = Run(EchoProcess, n=2, seed=3, horizon=50.0, crash_plan=plan).execute()
        assert result.algorithms[1].timer_fires == 0
        assert result.network.sent_by_pid.get(1, 0) == 0
