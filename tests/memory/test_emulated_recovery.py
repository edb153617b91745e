"""Recovery edges of the ABD emulation: amnesia, resync, retry policies.

The mid-operation cases the fault campaigns cannot pin deterministically
live here: an in-flight quorum op spanning a crash *and* the recovery,
the no-service window of a recovering replica, and the retry-timer
hygiene of both retransmission policies.
"""

from __future__ import annotations

import pytest

from repro.memory.emulated import (
    EmulatedMemory,
    EmulationConfig,
    _PendingOp,
)
from repro.netsim.network import Message
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from tests.mutants import MUTANTS


def make_memory(seed: int = 7, horizon: float = 10_000.0, **knobs):
    """A started EmulatedMemory with one register PROG owned by pid 0."""
    sim = Simulator()
    mem = EmulatedMemory(
        clock=lambda: sim.now,
        sim=sim,
        rng=RngRegistry(seed),
        config=EmulationConfig.from_dict(knobs),
    )
    reg = mem.create_register("PROG", owner=0, initial=0, critical=True)
    mem.start(horizon=horizon)
    return sim, mem, reg


class _RecordingNet:
    """Stub network capturing ``send`` calls (for direct probes of a
    replica's per-kind handlers)."""

    def __init__(self):
        self.sent = []
        self.delivered = 0

    def send(self, sender, receiver, kind, payload):
        self.sent.append((sender, receiver, kind, payload))


def _msg(sender, receiver, kind, payload, sent_at=0.0):
    return Message(sender=sender, receiver=receiver, kind=kind, payload=payload, sent_at=sent_at)


# ----------------------------------------------------------------------
# In-flight operations across crash + recovery + resync
# ----------------------------------------------------------------------
def test_inflight_write_completes_across_crash_and_recovery():
    # Two replicas: the write quorum is BOTH of them, so a write issued
    # while replica 1 is down can only finish after the recovery -- and
    # the recovering replica must ack it mid-resync (writes are safe to
    # apply on amnesia; only reads are not).
    sim, mem, reg = make_memory(
        replicas=2,
        fault_plan=[
            {"kind": "replica-crash", "at": 10.0, "replica": 1},
            {"kind": "replica-recover", "at": 200.0, "replica": 1},
        ],
    )
    done, got = [], []
    sim.schedule_at(20.0, lambda: mem.emu_write(0, reg, 7, done.append))
    sim.schedule_at(500.0, lambda: mem.emu_read(1, reg, got.append))
    sim.run(until=10_000.0)
    assert done, "write never completed despite the recovery"
    assert got == [7]
    assert mem.retransmissions > 0  # the op survived on retransmission
    assert mem.recoveries == 1 and mem.resyncs == 1
    assert mem.replicas[1].store["PROG"][1] == 7
    assert not mem._ops and not mem._rounds  # nothing left in flight


def test_resync_completes_against_the_single_other_replica():
    # At two replicas a "majority of the others" is the one survivor;
    # the resync quorum is capped there, so recovery still terminates
    # (the survivor holds every completed write by quorum intersection).
    sim, mem, reg = make_memory(
        replicas=2,
        fault_plan=[
            {"kind": "replica-crash", "at": 10.0, "replica": 1},
            {"kind": "replica-recover", "at": 40.0, "replica": 1},
        ],
    )
    sim.schedule_at(5.0, lambda: mem.emu_write(0, reg, 3, lambda _: None))
    sim.run(until=10_000.0)
    assert mem.resyncs == 1
    assert not mem.replicas[1].recovering
    assert mem.replicas[1].store["PROG"][1] == 3


# ----------------------------------------------------------------------
# The no-service window of a recovering replica
# ----------------------------------------------------------------------
def test_recovering_replica_serves_no_reads_but_applies_writes():
    sim, mem, reg = make_memory()
    node = mem.replicas[1]
    mem._crash_replica(node)
    mem._begin_recovery(node)
    assert node.recovering  # resync is pending; no replies ran yet

    net = node.network = _RecordingNet()
    node.on_read(_msg(0, node.node_id, "abd.read", (1, "PROG")))
    assert net.sent == []  # amnesiac state must not enter a read quorum
    assert node.reads_served == 0

    node.on_sync(_msg(-1, node.node_id, "abd.sync", (9,)))
    assert net.sent == []  # nor certify another replica's resync

    node.on_write(_msg(0, node.node_id, "abd.write", (2, "PROG", (1, 0), 5)))
    assert node.store["PROG"] == ((1, 0), 5)  # writes apply and ack
    assert [entry[2] for entry in net.sent] == ["abd.write-ack"]
    assert net.delivered == 3  # every delivery counts, served or refused


def test_resync_merge_never_regresses_writes_applied_mid_recovery():
    # A write acked during recovery is newer than the snapshots being
    # merged; completing the resync must keep it.
    sim, mem, reg = make_memory(
        fault_plan=[
            {"kind": "replica-crash", "at": 10.0, "replica": 1},
            {"kind": "replica-recover", "at": 40.0, "replica": 1},
        ],
    )
    # Old value before the crash, new value written exactly while the
    # recovering replica is collecting snapshots (sync RTT is 0.5).
    sim.schedule_at(5.0, lambda: mem.emu_write(0, reg, 1, lambda _: None))
    sim.schedule_at(40.1, lambda: mem.emu_write(0, reg, 2, lambda _: None))
    sim.run(until=10_000.0)
    assert mem.resyncs == 1
    assert mem.replicas[1].store["PROG"][1] == 2


def test_recovery_without_resync_is_amnesiac():
    # The skip-resync mutant the chaos campaign must catch: the replica
    # rejoins service straight out of amnesia.
    sim, mem, reg = make_memory(
        fault_plan=[
            {"kind": "replica-crash", "at": 10.0, "replica": 1},
            {"kind": "replica-recover", "at": 40.0, "replica": 1},
        ],
    )
    sim.schedule_at(5.0, lambda: mem.emu_write(0, reg, 9, lambda _: None))
    with MUTANTS["skip-resync"].applied():
        sim.run(until=10_000.0)
    assert mem.recoveries == 1 and mem.resyncs == 0
    assert not mem.replicas[1].recovering  # never entered the window
    assert "PROG" not in mem.replicas[1].store  # the write is gone


def test_crash_during_resync_abandons_the_round():
    sim, mem, reg = make_memory(
        fault_plan=[
            {"kind": "replica-crash", "at": 10.0, "replica": 1},
            {"kind": "replica-recover", "at": 40.0, "replica": 1},
            # Re-crash before the first sync reply (RTT 0.5) lands.
            {"kind": "replica-crash", "at": 40.2, "replica": 1},
            {"kind": "replica-recover", "at": 80.0, "replica": 1},
        ],
    )
    sim.run(until=10_000.0)
    assert mem.recoveries == 2
    assert mem.resyncs == 1  # only the second round completed
    assert not mem._rounds  # the abandoned round left no state behind


# ----------------------------------------------------------------------
# Retry policies
# ----------------------------------------------------------------------
def _pending_op(mem, reg, pid=0, attempts=0):
    op = _PendingOp(1, pid, reg, "read", lambda _: None, 0.0)
    op.attempts = attempts
    return op


def test_fixed_retry_delay_is_constant():
    sim, mem, reg = make_memory()
    delays = {mem._retry_delay(_pending_op(mem, reg, attempts=k)) for k in range(6)}
    assert delays == {mem.config.retry_interval}


def test_backoff_retry_delay_doubles_and_caps():
    sim, mem, reg = make_memory(retry_policy="backoff", retry_jitter=0.0)
    base = mem.config.retry_interval
    cap = mem.config.retry_cap
    delays = [mem._retry_delay(_pending_op(mem, reg, attempts=k)) for k in range(8)]
    assert delays[:3] == [base, 2 * base, 4 * base]
    assert delays[-1] == cap
    assert all(d <= cap for d in delays)


def test_backoff_jitter_stays_in_band():
    sim, mem, reg = make_memory(retry_policy="backoff", retry_jitter=0.25)
    base = mem.config.retry_interval
    for _ in range(32):
        delay = mem._retry_delay(_pending_op(mem, reg, attempts=0))
        assert base <= delay <= base * 1.25


def test_backoff_exponent_stops_growing_at_the_cap():
    # 2.0 ** attempts used to be evaluated before the min(): a phase
    # stalled into its 1024th round died with OverflowError.
    sim, mem, reg = make_memory(retry_policy="backoff", retry_jitter=0.0)
    cap = mem.config.retry_cap
    for attempts in (3, 4, 1023, 1024, 10**6):
        assert mem._retry_delay(_pending_op(mem, reg, attempts=attempts)) == cap
    # A cap that is not a power-of-two multiple of the interval is still
    # reached exactly, at the first doubling past it.
    sim, mem, reg = make_memory(
        retry_policy="backoff", retry_jitter=0.0, retry_interval=3.0, retry_cap=100.0
    )
    delays = [mem._retry_delay(_pending_op(mem, reg, attempts=k)) for k in range(8)]
    assert delays == [3.0, 6.0, 12.0, 24.0, 48.0, 96.0, 100.0, 100.0]


def test_stalled_backoff_write_survives_a_thousand_rounds():
    # Replicas 0 and 1 are down from t=1 to t=50; a write issued at t=2
    # retransmits every 0.01 (cap == interval) and must still be alive
    # to complete when they come back, ~4800 rounds later.
    sim, mem, reg = make_memory(
        replicas=3,
        retry_policy="backoff",
        retry_interval=0.01,
        retry_cap=0.01,
        fault_plan=[
            {"kind": "replica-crash", "at": 1.0, "replica": 0},
            {"kind": "replica-crash", "at": 1.0, "replica": 1},
            {"kind": "replica-recover", "at": 50.0, "replica": 0},
            {"kind": "replica-recover", "at": 50.0, "replica": 1},
        ],
    )
    done = []
    sim.schedule_at(2.0, lambda: mem.emu_write(0, reg, 7, done.append))
    sim.run(until=60.0)
    assert done == [None]
    assert mem.retransmissions > 1024
    assert not mem._ops


def test_unknown_retry_policy_is_rejected():
    with pytest.raises(ValueError, match="retry policy"):
        EmulationConfig(retry_policy="telepathy")


def test_completed_ops_leak_no_retry_timers():
    # On synchronous links every op completes on the first round: no
    # retransmission ever fires, and nothing stays armed afterwards.
    sim, mem, reg = make_memory()
    sim.schedule_at(5.0, lambda: mem.emu_write(0, reg, 4, lambda _: None))
    sim.schedule_at(10.0, lambda: mem.emu_read(1, reg, lambda _: None))
    sim.run(until=10_000.0)
    assert mem.retransmissions == 0
    assert not mem._ops
    assert sim.fired_by_kind.get("abd-retry", 0) == 0


def test_completed_resync_leaks_no_retry_timers():
    # retry_interval 20 and a resync that completes in 0.5: a leaked
    # resync timer would fire ~500 times before the horizon.  A round
    # retransmits on the abd-retry wake, as the quorum ops do.
    sim, mem, reg = make_memory(
        fault_plan=[
            {"kind": "replica-crash", "at": 10.0, "replica": 1},
            {"kind": "replica-recover", "at": 40.0, "replica": 1},
        ],
    )
    sim.run(until=10_000.0)
    assert mem.resyncs == 1
    assert not mem._rounds
    assert sim.fired_by_kind.get("abd-retry", 0) == 0


# ----------------------------------------------------------------------
# The fault overlay as a plain link model
# ----------------------------------------------------------------------
def test_partition_schedule_link_model_severs_the_island():
    # The overlay is registered as the 'partition-schedule' link model:
    # replica 1 is islanded for the whole run, yet the {0, 2} majority
    # keeps every quorum op alive.
    sim, mem, reg = make_memory(
        links="partition-schedule",
        link_params={"partitions": [[0.0, 10_000.0, [1]]], "delta": 0.25},
    )
    done, got = [], []
    sim.schedule_at(5.0, lambda: mem.emu_write(0, reg, 6, done.append))
    sim.schedule_at(50.0, lambda: mem.emu_read(2, reg, got.append))
    sim.run(until=10_000.0)
    assert done and got == [6]
    assert mem.network.behavior.partitioned_drops > 0
    assert mem.replicas[1].store["PROG"] == ((0, -1), 0)  # never heard the write
