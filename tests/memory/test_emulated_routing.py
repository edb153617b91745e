"""Delivery routing of the ABD emulation: one handler per message kind.

The emulation's network resolves each message's handler when it is
sent, from the kind -> handler table of the address it goes to: a
replica's address routes the requests it serves to that node and the
state-sync replies addressed to it to the emulation's rounds; every
client address shares the table of the two client-side replies.  These
tests pin that every kind the protocol sends has exactly one handler,
that a kind with none fails loudly at the send, that a reassigned link
behaviour is what the next send uses, and that ``Network.delivered``
counts every delivery, duplicates included.
"""

from __future__ import annotations

import pytest

from repro.memory.emulated import EmulatedMemory, EmulationConfig
from repro.sim.events import intern_kind
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry

#: Replica index 3 joins, replica 1 crashes and recovers (amnesia
#: resync), so one run sends every kind the protocol has.
_EVERY_PHASE = dict(
    replicas=3,
    membership_plan=[{"kind": "join", "at": 20.0, "replica": 3}],
    fault_plan=[
        {"kind": "replica-crash", "at": 5.0, "replica": 1},
        {"kind": "replica-recover", "at": 40.0, "replica": 1},
    ],
    transfer_delay=30.0,
    consistency="atomic",
)

_CLIENT_KINDS = {"abd.read-reply", "abd.write-ack"}
_REPLICA_KINDS = {"abd.read", "abd.write", "abd.sync", "abd.transfer", "abd.sync-reply", "abd.transfer-ack"}


def _memory(**knobs):
    sim = Simulator()
    mem = EmulatedMemory(
        clock=lambda: sim.now, sim=sim, rng=RngRegistry(3), config=EmulationConfig.from_dict(knobs)
    )
    reg = mem.create_register("PROG", owner=0, initial=0)
    return sim, mem, reg


def _spy_on_kinds(network):
    """Record the kind of every send and multicast of ``network``."""
    kinds = set()
    send, multicast = network.send, network.multicast

    def spy_send(sender, receiver, kind, payload):
        kinds.add(kind)
        send(sender, receiver, kind, payload)

    def spy_multicast(sender, receivers, kind, payload):
        kinds.add(kind)
        multicast(sender, receivers, kind, payload)

    network.send, network.multicast = spy_send, spy_multicast
    return kinds


def _workload(sim, mem, reg, until=400.0):
    """A closed loop of writes by pid 0 and reads by pid 1."""

    def write(value=1):
        mem.emu_write(0, reg, value, lambda _: sim.schedule_after(3.0, lambda: write(value + 1)))

    def read():
        mem.emu_read(1, reg, lambda _: sim.schedule_after(2.0, read))

    sim.schedule_at(0.0, write)
    sim.schedule_at(1.0, read)
    sim.run(until=until)


def test_every_sent_kind_has_exactly_one_handler():
    sim, mem, reg = _memory(**_EVERY_PHASE)
    kinds = _spy_on_kinds(mem.network)
    mem.start(horizon=400.0)
    _workload(sim, mem, reg)
    assert mem.resyncs == 1 and mem.configs_installed == 1
    assert kinds == _CLIENT_KINDS | _REPLICA_KINDS

    routes = mem.network._routes
    replica_tables = [routes[node.node_id] for node in mem.replicas]
    client_table = routes[0]
    assert len(mem.replicas) == 4
    assert routes[1] is client_table  # every client shares one table
    assert set(client_table) == _CLIENT_KINDS
    assert all(set(table) == _REPLICA_KINDS for table in replica_tables)
    for kind in kinds:
        handlers = {
            table[kind].__func__.__qualname__
            for table in replica_tables + [client_table]
            if kind in table
        }
        assert len(handlers) == 1, (kind, handlers)
    # The requests land on the node at the address, nowhere else.
    for node, table in zip(mem.replicas, replica_tables):
        assert table["abd.read"].__self__ is node
        assert table["abd.sync-reply"].__self__ is mem


def test_a_kind_without_a_handler_raises_at_the_send():
    sim, mem, reg = _memory()
    mem.start(horizon=100.0)
    network = mem.network
    with pytest.raises(KeyError, match="no route for 'abd.bogus' messages to -1"):
        network.send(0, -1, "abd.bogus", ())
    with pytest.raises(KeyError, match="no route for 'abd.read' messages to 2"):
        network.send(-1, 2, "abd.read", (1, "PROG"))  # clients serve no reads
    with pytest.raises(KeyError, match="no route"):
        network.multicast(0, [-1, -2], "abd.read-reply", (1, "PROG", (0, -1), 0))
    assert sim.pending() == 0 and network.total_sent == 0


def test_released_emulation_routes_nothing():
    sim, mem, reg = _memory()
    mem.start(horizon=100.0)
    mem.release()
    with pytest.raises(KeyError, match="no route"):
        mem.network.send(0, -1, "abd.read", (1, "PROG"))


def test_fault_plan_overlay_takes_effect_on_the_next_send():
    # start() wraps the configured links in the partition overlay; the
    # network must send through the overlay's hooks from then on.
    sim, mem, reg = _memory(
        fault_plan=[
            {"kind": "partition", "at": 0.0, "replicas": [1]},
            {"kind": "heal", "at": 300.0, "replicas": [1]},
        ]
    )
    plain = mem.network.behavior
    mem.start(horizon=400.0)
    assert mem.network.behavior is not plain
    _workload(sim, mem, reg, until=200.0)
    assert mem.network.behavior.partitioned_drops > 0
    assert mem.reads_completed and mem.writes_completed


@pytest.mark.parametrize(
    "knobs",
    [
        pytest.param({}, id="sync"),
        pytest.param({"links": "lossy", "link_params": {"loss": 0.3}}, id="lossy"),
        pytest.param({"links": "duplication", "link_params": {"rate": 0.5}}, id="duplication"),
        pytest.param({"links": "corruption", "link_params": {"rate": 0.5}}, id="corruption"),
        pytest.param(_EVERY_PHASE, id="every-phase"),
    ],
)
def test_delivered_counts_every_fired_message_exactly(knobs):
    sim, mem, reg = _memory(**knobs)
    mem.start(horizon=400.0)
    _workload(sim, mem, reg)
    network = mem.network
    assert network.delivered == sim.fired_by_kind["message"]
    # Every message sent (and every duplicate) is delivered, dropped or
    # still in flight at the horizon.
    duplicated = getattr(network.behavior, "duplicated", 0)
    assert network.delivered + network.dropped + _queued_messages(sim) == (
        network.total_sent + duplicated
    )
    if knobs.get("links") == "duplication":
        assert duplicated > 0


def _queued_messages(sim):
    """Message deliveries still queued in ``sim``."""
    kid = intern_kind("message")
    return sum(1 for entry in sim._heap if entry[2] == kid)
