"""Retransmissions: one wake entry per wire address, keyed per item.

Every armed item -- a client's quorum op, or a state-sync round of a
replica address -- reserves the heap key ``(now + delay, seq)`` its own
timer entry would have had, and its address's one wake entry on the
``abd-retry`` lane carries each retransmission to exactly that key.  So
the retransmission schedule -- and every count and digest downstream --
is the per-item timer's, while a finished op leaves no entry behind:
the pins below are the counts of the per-item timers, except for
``events_skipped``, which only the stale per-op timers used to inflate.
"""

from __future__ import annotations

import pytest

from repro.core.algorithm1 import WriteEfficientOmega
from repro.memory.emulated import EmulatedMemory, EmulationConfig
from repro.sim.events import intern_kind
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.workloads.registry import build_scenario, resolve_algorithm
from repro.workloads.scenarios import nominal_emulated_atomic

RETRY_KIND = intern_kind("abd-retry")

#: A chaos plan that stalls quorums: a majority partition, then an
#: amnesia crash of a third replica.
_STALLING_PLAN = [
    {"kind": "partition", "at": 1000.0, "replicas": [1, 2]},
    {"kind": "heal", "at": 1400.0, "replicas": [1, 2]},
    {"kind": "replica-crash", "at": 1800.0, "replica": 0},
    {"kind": "replica-recover", "at": 2100.0, "replica": 0},
]

#: ``(factory, kwargs, retransmissions, abd-retry fires, events_fired)``
#: of Algorithm 1 at seed 0, measured with one timer entry per op.
RETRANSMITTING_CELLS = [
    pytest.param("chaos", {"horizon": 3000.0, "plan": _STALLING_PLAN}, 61, 61, 33640, id="chaos-fixed"),
    pytest.param(
        "chaos", {"horizon": 3000.0, "plan": _STALLING_PLAN, "retry_policy": "backoff"}, 15, 15, 32491,
        id="chaos-backoff",
    ),
    pytest.param("emulated-lossy-audit", {}, 445, 445, 26319, id="emulated-lossy-audit"),
    pytest.param("emulated-gst-ramp-audit", {}, 1009, 1009, 110312, id="emulated-gst-ramp-audit"),
]


def _watch_wakes(monkeypatch, stale_too: bool) -> list:
    """After every wake filing, the number of ``abd-retry`` entries the
    filing client has queued (live ones, or every one with
    ``stale_too``); a filing is the only way one is added."""
    peaks: list = []
    file_wake = EmulatedMemory._file_wake

    def watched(self, client, key):
        file_wake(self, client, key)
        peaks.append(
            sum(
                1
                for entry in self._sim._heap
                if entry[2] == RETRY_KIND and entry[3] == client.pid and (stale_too or entry[4].live(entry[5]))
            )
        )

    monkeypatch.setattr(EmulatedMemory, "_file_wake", watched)
    return peaks


@pytest.mark.parametrize("name, kwargs, retransmissions, fires, events", RETRANSMITTING_CELLS)
def test_retransmitting_cells_keep_their_counts_with_one_wake_per_client(
    monkeypatch, name, kwargs, retransmissions, fires, events
):
    # A fixed retry interval never files a wake before a queued one, so
    # nothing is cancelled: one entry per client, stale or live.  Backoff
    # may arm an op earlier than the queued wake, which then goes stale.
    peaks = _watch_wakes(monkeypatch, stale_too=kwargs.get("retry_policy") != "backoff")
    result = build_scenario(name, kwargs).run(resolve_algorithm("alg1"), seed=0)
    assert result.memory.retransmissions == retransmissions
    assert result.sim.fired_by_kind["abd-retry"] == fires
    assert result.sim.events_fired == events
    assert peaks and max(peaks) == 1


def test_finished_ops_leave_no_stale_timers():
    """The cell whose stale per-op timers were first counted: 4 141
    skipped pops with one timer per op, 443 with one wake per client."""
    result = nominal_emulated_atomic(n=3, horizon=3000.0).run(WriteEfficientOmega, seed=0)
    assert (result.sim.events_fired, result.sim.events_skipped) == (54174, 443)


#: A fuzz cell whose rounds retransmit while ops do: replica 1 recovers
#: (one resync) and replica 0 is cut off across two reconfigurations
#: (two transfer rounds), so both kinds of round wait on a quorum.
_ROUNDS_CELL = {
    "backend": "emulated",
    "links": "sync",
    "plan": [
        {"kind": "replica-crash", "at": 300.0, "replica": 1},
        {"kind": "partition", "at": 400.0, "replicas": [0]},
        {"kind": "replica-recover", "at": 500.0, "replica": 1},
        {"kind": "heal", "at": 2000.0, "replicas": [0]},
    ],
    "membership": [{"kind": "join", "at": 450.0, "replica": 3}, {"kind": "leave", "at": 900.0, "replica": 1}],
}


def test_state_sync_rounds_retransmit_on_the_abd_retry_wake(monkeypatch):
    """Counts measured with one timer entry per round (76 resync and 70
    transfer retransmissions beside the ops' 241): unchanged, and every
    retransmission -- op or round -- fires as an ``abd-retry`` wake."""
    peaks = _watch_wakes(monkeypatch, stale_too=True)
    result = build_scenario("fuzz-cell", _ROUNDS_CELL).run(resolve_algorithm("alg1"), seed=0)
    memory = result.memory
    assert (memory.resyncs, memory.transfer_rounds) == (1, 2)
    assert (result.sim.events_fired, result.sim.events_skipped) == (19839, 207)
    assert memory.retransmissions == 387
    retries = {kind: n for kind, n in result.sim.fired_by_kind.items() if "retry" in kind}
    assert retries == {"abd-retry": 387}
    assert peaks and max(peaks) == 1


class _DropEverything:
    def delivery_delay(self, message):
        return None


def _stalled_memory(**knobs):
    """A started emulation whose links drop every message: each op
    retransmits for ever, on its own schedule."""
    sim = Simulator()
    mem = EmulatedMemory(clock=lambda: sim.now, sim=sim, rng=RngRegistry(0), config=EmulationConfig.from_dict(knobs))
    mem.network.behavior = _DropEverything()
    reg = mem.create_register("R", owner=0, initial=0)
    mem.start(horizon=1000.0)
    resent: list = []
    broadcast = mem._broadcast_phase

    def logged(op):
        resent.append((sim.now, op.op_id))
        broadcast(op)

    mem._broadcast_phase = logged
    return sim, mem, reg, resent


def test_sequential_ops_of_one_client_queue_one_wake():
    sim = Simulator()
    mem = EmulatedMemory(clock=lambda: sim.now, sim=sim, rng=RngRegistry(0), config=EmulationConfig(retry_interval=20.0))
    reg = mem.create_register("R", owner=0, initial=0)
    mem.start(horizon=1000.0)
    done: list = []
    for value in range(1, 6):  # five writes inside one retry interval
        mem.emu_write(0, reg, value, done.append)
        sim.run(until=sim.now + 1.0)
    assert len(done) == 5 and not mem._ops
    assert sum(1 for entry in sim._heap if entry[2] == RETRY_KIND) == 1
    sim.run(until=100.0)  # the wake finds no armed op and declines
    assert sim.events_skipped == 1 and mem.retransmissions == 0
    assert not any(entry[2] == RETRY_KIND for entry in sim._heap)


@pytest.mark.parametrize(
    "knobs, expected",
    [
        # Fixed: op 1 armed at 0 and op 2 at 5 retransmit every 20.
        ({"retry_interval": 20.0}, [(20.0, 1), (25.0, 2), (40.0, 1), (45.0, 2), (60.0, 1), (65.0, 2)]),
        # Backoff without jitter: op 1 waits 20, 40, 80; op 2, armed at
        # 50 while op 1's wake is queued for 140, is due first at 70.
        (
            {"retry_interval": 20.0, "retry_policy": "backoff", "retry_jitter": 0.0},
            [(20.0, 1), (60.0, 1), (70.0, 2), (110.0, 2), (140.0, 1), (190.0, 2)],
        ),
    ],
    ids=["fixed", "backoff"],
)
def test_concurrent_ops_of_one_client_each_keep_their_schedule(knobs, expected):
    sim, mem, reg, resent = _stalled_memory(**knobs)
    second_at = 5.0 if knobs.get("retry_policy") != "backoff" else 50.0
    mem.emu_write(0, reg, 1, lambda _: None)
    sim.schedule_at(second_at, lambda: mem.emu_write(0, reg, 2, lambda _: None))
    sim.run(until=expected[-1][0])
    assert [entry for entry in resent if entry[0] > 0.0 and entry[0] != second_at] == expected
    assert mem.retransmissions == len(expected)
    live = [entry for entry in sim._heap if entry[2] == RETRY_KIND and entry[4].live(entry[5])]
    assert len(live) == 1  # the one wake, at the earlier of the two ops' keys
