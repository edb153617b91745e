"""Channels: timing, loss, the eventual t-source property."""

from __future__ import annotations

import pytest

from repro.netsim.network import (
    CorruptingLinks,
    DuplicatingLinks,
    EventuallyTimelyLinks,
    FairLossyLinks,
    Message,
    Network,
    PartitionScheduleLinks,
    RampLinks,
    SynchronousLinks,
    TimelyLinks,
)
from repro.sim.kernel import Simulator
from tests.conftest import make_rng


def msg(sender=0, receiver=1, kind="X", payload=None, sent_at=0.0):
    return Message(sender, receiver, kind, payload, sent_at)


class TestTimelyLinks:
    def test_delays_within_bounds(self):
        links = TimelyLinks(make_rng(1), lo=0.5, hi=2.0)
        for _ in range(200):
            d = links.delivery_delay(msg())
            assert 0.5 <= d <= 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TimelyLinks(make_rng(1), lo=2.0, hi=1.0)


class TestFairLossyLinks:
    def test_loss_rate_roughly_respected(self):
        links = FairLossyLinks(make_rng(2), loss=0.5)
        outcomes = [links.delivery_delay(msg()) for _ in range(1000)]
        dropped = sum(1 for d in outcomes if d is None)
        assert 350 < dropped < 650

    def test_fairness_some_get_through(self):
        links = FairLossyLinks(make_rng(3), loss=0.9)
        outcomes = [links.delivery_delay(msg()) for _ in range(500)]
        assert any(d is not None for d in outcomes)

    def test_delays_capped(self):
        links = FairLossyLinks(make_rng(4), loss=0.0, cap=80.0)
        for _ in range(500):
            d = links.delivery_delay(msg())
            assert d is not None and d <= 80.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FairLossyLinks(make_rng(1), loss=1.0)


class TestEventuallyTimelyLinks:
    def _links(self, gst=100.0):
        rng = make_rng(5)
        return EventuallyTimelyLinks(
            FairLossyLinks(rng, loss=0.5), sources={0}, gst=gst, rng=rng,
            timely_lo=0.5, timely_hi=2.0,
        )

    def test_source_timely_after_gst(self):
        links = self._links()
        for _ in range(200):
            d = links.delivery_delay(msg(sender=0, sent_at=150.0))
            assert d is not None and 0.5 <= d <= 2.0

    def test_source_lossy_before_gst(self):
        links = self._links()
        outcomes = [links.delivery_delay(msg(sender=0, sent_at=50.0)) for _ in range(300)]
        assert any(d is None for d in outcomes)

    def test_non_source_stays_lossy_forever(self):
        links = self._links()
        outcomes = [links.delivery_delay(msg(sender=1, sent_at=1e6)) for _ in range(300)]
        assert any(d is None for d in outcomes)


class TestNetwork:
    def _network(self):
        sim = Simulator()
        net = Network(sim, TimelyLinks(make_rng(6), lo=1.0, hi=1.0))
        inbox = []
        net.install_delivery(lambda m: inbox.append((sim.now, m)))
        return sim, net, inbox

    def test_send_delivers_via_kernel(self):
        sim, net, inbox = self._network()
        net.send(0, 1, "PING", "x")
        sim.run()
        assert [(t, m.kind, m.payload) for t, m in inbox] == [(1.0, "PING", "x")]

    def test_broadcast_excludes_sender(self):
        sim, net, inbox = self._network()
        net.broadcast(0, 4, "HB", None)
        sim.run()
        assert sorted(m.receiver for _, m in inbox) == [1, 2, 3]

    def test_accounting(self):
        sim, net, _ = self._network()
        net.broadcast(2, 3, "HB", None)
        sim.run()
        assert net.sent_by_pid == {2: 2}
        assert net.delivered == 2
        assert net.total_sent == 2

    def test_drops_counted(self):
        sim = Simulator()
        net = Network(sim, FairLossyLinks(make_rng(7), loss=1.0 - 1e-9))
        net.install_delivery(lambda m: None)
        for _ in range(50):
            net.send(0, 1, "X", None)
        assert net.dropped > 0

    def test_non_positive_delay_is_refused(self):
        class ZeroDelay:
            def delivery_delay(self, message):
                return 0.0

        net = Network(Simulator(), ZeroDelay())
        net.install_delivery(lambda m: None)
        with pytest.raises(ValueError, match="non-positive delay"):
            net.multicast(0, (1, 2), "X", None)
        with pytest.raises(ValueError, match="non-positive delay"):
            net.send(0, 1, "X", None)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")], ids=["zero", "negative", "nan"])
    @pytest.mark.parametrize("hook", ["delivery_delay", "delivery_plan", "sync-delta"])
    def test_a_bad_delay_is_refused_by_send_and_multicast(self, bad, hook):
        class PlainDelay:
            def delivery_delay(self, message):
                return bad

        class PlannedDelay(PlainDelay):
            def delivery_plan(self, message):
                return [(1.0, message), (bad, message)]

        if hook == "sync-delta":
            links = SynchronousLinks(1.0)
            links.delta = bad  # past the constructor's check
        else:
            links = PlainDelay() if hook == "delivery_delay" else PlannedDelay()
        sim = Simulator()
        net = Network(sim, links)
        net.install_delivery(lambda m: None)
        with pytest.raises(ValueError, match="non-positive delay"):
            net.multicast(0, (1, 2), "X", None)
        with pytest.raises(ValueError, match="non-positive delay"):
            net.send(0, 1, "X", None)
        assert net.total_sent == 0

    @pytest.mark.parametrize("links", [SynchronousLinks(0.25), TimelyLinks(make_rng(3))], ids=["sync", "timely"])
    def test_a_kind_with_no_route_is_refused_by_send_and_multicast(self, links):
        sim = Simulator()
        net = Network(sim, links)
        net.install_routes({"X": lambda m: None})
        with pytest.raises(KeyError, match="no route for 'Y' messages to 1"):
            net.multicast(0, (1, 2), "Y", None)
        with pytest.raises(KeyError, match="no route for 'Y' messages to 1"):
            net.send(0, 1, "Y", None)
        assert sim.pending() == 0 and net.total_sent == 0

    def test_a_synchronous_delay_is_read_when_the_behaviour_is_assigned(self):
        sim = Simulator()
        links = SynchronousLinks(0.5)
        net = Network(sim, links)
        inbox = []
        net.install_delivery(lambda m: inbox.append((sim.now, m.receiver)))
        net.send(0, 1, "X", None)
        net.behavior = SynchronousLinks(2.0)
        net.multicast(0, (2, 3), "X", None)
        sim.run()
        assert inbox == [(0.5, 1), (2.0, 2), (2.0, 3)]


#: ``(send time, sender, receivers, kind, payload)``: clients (pids >= 0)
#: and replicas (wire addresses -1, -2, -3) talking across the partition
#: and storm windows of the ``partition-schedule`` twin below.  Payloads
#: end in an int, so corrupting links may mutate them.
_TRAFFIC = (
    (0.0, 0, (-1, -2, -3), "abd.write", (1, "R", (1, 0), 7)),
    (0.5, -1, (0,), "abd.write-ack", (1, "R", (1, 0), 7)),
    (1.5, 1, (-1, -2, -3), "abd.read", (2, "R")),
    (1.5, 2, (-3, -1, -2), "abd.write", (3, "R", (1, 2), 4)),
    (2.5, -2, (1, 2, 0), "abd.read-reply", (2, "R", (1, 0), 7)),
    (3.5, 2, (-3, -1), "abd.write", (4, "R", (2, 2), 9)),
    (5.0, 0, (), "abd.read", (5, "R")),
)

_WINDOWS = dict(partitions=[(1.0, 3.0, [0])], storms=[(2.0, 4.0, 2.0)])

#: Every behaviour family the fabric serves: plain one-fate models, the
#: mutating ``delivery_plan`` models, and the fault overlay over both.
_BEHAVIORS = [
    pytest.param(lambda rng: SynchronousLinks(0.25), id="sync"),
    pytest.param(lambda rng: TimelyLinks(rng), id="timely"),
    pytest.param(lambda rng: FairLossyLinks(rng, loss=0.3), id="lossy"),
    pytest.param(lambda rng: DuplicatingLinks(SynchronousLinks(0.25), rng, rate=0.5), id="duplication"),
    pytest.param(lambda rng: CorruptingLinks(SynchronousLinks(0.25), rng, rate=0.5), id="corruption"),
    pytest.param(lambda rng: PartitionScheduleLinks(TimelyLinks(rng), **_WINDOWS), id="partition-schedule"),
    pytest.param(
        lambda rng: PartitionScheduleLinks(DuplicatingLinks(TimelyLinks(rng), rng, rate=0.5), **_WINDOWS),
        id="partition-schedule-over-duplication",
    ),
]


def _drive(make_behavior, fan_out):
    """Replay ``_TRAFFIC`` through one multicast per row (``fan_out``)
    or one send per receiver; return everything observable."""
    rng = make_rng(11)
    sim = Simulator()
    net = Network(sim, make_behavior(rng))
    deliveries = []
    net.install_delivery(lambda m: deliveries.append((sim.now, m.receiver, m)))
    for at, sender, receivers, kind, payload in _TRAFFIC:

        def emit(sender=sender, receivers=receivers, kind=kind, payload=payload):
            if fan_out:
                net.multicast(sender, receivers, kind, payload)
            else:
                for receiver in receivers:
                    net.send(sender, receiver, kind, payload)

        sim.schedule_at(at, emit)
    sim.run()
    streams = {name: stream.getstate() for name, stream in rng._streams.items()}
    return net, deliveries, streams


class TestMulticast:
    """One call per fan-out is exactly one ``send`` per receiver."""

    @pytest.mark.parametrize("make_behavior", _BEHAVIORS)
    def test_matches_one_send_per_receiver(self, make_behavior):
        net, deliveries, streams = _drive(make_behavior, fan_out=True)
        twin, twin_deliveries, twin_streams = _drive(make_behavior, fan_out=False)
        assert deliveries and deliveries == twin_deliveries
        assert (net.dropped, net.delivered) == (twin.dropped, twin.delivered)
        assert net.sent_by_pid == twin.sent_by_pid
        assert streams == twin_streams

    @pytest.mark.parametrize("make_behavior", _BEHAVIORS)
    def test_every_sent_message_is_delivered_or_dropped(self, make_behavior):
        net, deliveries, _ = _drive(make_behavior, fan_out=True)
        behavior = net.behavior
        duplicated = getattr(behavior, "duplicated", 0) + getattr(
            getattr(behavior, "base", None), "duplicated", 0
        )
        assert net.total_sent == sum(len(row[2]) for row in _TRAFFIC)
        assert net.delivered == len(deliveries)
        assert net.delivered + net.dropped == net.total_sent + duplicated

    def test_an_empty_fan_out_sends_nothing(self):
        sim = Simulator()
        net = Network(sim, SynchronousLinks(1.0))
        net.multicast(0, (), "X", None)
        assert net.sent_by_pid == {} and sim.pending() == 0

    def test_message_is_an_immutable_record(self):
        m = Message(sender=1, receiver=-1, kind="abd.read", payload=(1, "R"), sent_at=2.0)
        assert (m.sender, m.receiver, m.kind, m.payload, m.sent_at) == (1, -1, "abd.read", (1, "R"), 2.0)
        with pytest.raises(AttributeError):
            m.payload = None
        assert m._replace(payload=()) == Message(1, -1, "abd.read", (), 2.0)


#: ``(model, its stream prefix)``: every channel model drawing per-link
#: randomness.  Senders and receivers span clients and replicas.
_STREAM_MODELS = [
    pytest.param(lambda rng: TimelyLinks(rng), "link", id="timely"),
    pytest.param(lambda rng: FairLossyLinks(rng), "link", id="lossy"),
    pytest.param(lambda rng: RampLinks(rng, gst=100.0), "link", id="gst-ramp"),
    pytest.param(lambda rng: EventuallyTimelyLinks(SynchronousLinks(), {0, -1}, 0.0, rng), "timely", id="t-source"),
    pytest.param(lambda rng: CorruptingLinks(SynchronousLinks(), rng, rate=1.0), "corrupt", id="corruption"),
    pytest.param(lambda rng: DuplicatingLinks(SynchronousLinks(), rng, rate=1.0), "dup", id="duplication"),
]
_LINKS = [(0, -1), (-1, 0), (0, -2), (-1, 2), (0, -1)]


class TestPerLinkStreams:
    """Each model binds a link's stream once, to the registry stream of
    the link's name, and only when the link first carries a message."""

    @pytest.mark.parametrize("make_links, prefix", _STREAM_MODELS)
    def test_a_link_stream_is_the_named_registry_stream(self, make_links, prefix):
        rng = make_rng(5)
        links = make_links(rng)
        assert rng._streams == {}  # nothing drawn, nothing bound
        hook = getattr(links, "delivery_plan", links.delivery_delay)
        for sender, receiver in _LINKS:
            hook(msg(sender, receiver, payload=(1, 2)))
        names = {f"{prefix}:{s}->{r}" for s, r in _LINKS}
        assert set(rng._streams) == names
        for sender, receiver in _LINKS:
            assert links._streams[sender, receiver] is rng.stream(f"{prefix}:{sender}->{receiver}")

    def test_draws_match_the_name_lookup(self):
        links = TimelyLinks(make_rng(8), lo=0.5, hi=2.0)
        reference = make_rng(8)
        for sender, receiver in _LINKS * 3:
            expected = reference.stream(f"link:{sender}->{receiver}").uniform(0.5, 2.0)
            assert links.delivery_delay(msg(sender, receiver)) == expected


class TestBehaviorBinding:
    """The network binds the channel's hooks on assignment, so a
    reassigned behaviour governs the very next send."""

    def _network(self, behavior):
        sim = Simulator()
        net = Network(sim, behavior)
        inbox = []
        net.install_delivery(lambda m: inbox.append((sim.now, m.payload)))
        return sim, net, inbox

    def test_plain_to_duplicating_mid_run(self):
        sim, net, inbox = self._network(SynchronousLinks(1.0))
        sim.schedule_at(0.0, lambda: net.send(0, 1, "X", "before"))
        duplicating = DuplicatingLinks(SynchronousLinks(1.0), make_rng(2), rate=1.0, lag=0.5)

        def swap() -> None:
            net.behavior = duplicating

        sim.schedule_at(5.0, swap)
        sim.schedule_at(5.0, lambda: net.multicast(0, (1, 2), "X", "after"))
        sim.run()
        assert inbox == [(1.0, "before"), (6.0, "after"), (6.0, "after"), (6.5, "after"), (6.5, "after")]
        assert net.behavior is duplicating and duplicating.duplicated == 2
        assert (net.total_sent, net.delivered, net.dropped) == (3, 5, 0)

    def test_duplicating_to_plain_mid_run(self):
        sim, net, inbox = self._network(DuplicatingLinks(SynchronousLinks(1.0), make_rng(2), rate=1.0))
        net.send(0, 1, "X", "before")
        sim.run()
        net.behavior = SynchronousLinks(2.0)
        net.send(0, 1, "X", "after")
        sim.run()
        assert inbox == [(1.0, "before"), (2.0, "before"), (4.0, "after")]
        assert net.delivered == 3

    def test_overlay_wrapping_the_links(self):
        sim, net, inbox = self._network(SynchronousLinks(1.0))
        net.behavior = PartitionScheduleLinks(net.behavior, partitions=[(0.0, 10.0, [0])])
        net.send(0, -1, "X", "severed")
        net.send(0, -2, "X", "kept")
        sim.run()
        assert inbox == [(1.0, "kept")] and net.dropped == 1


class TestPartitionScheduleLinks:
    """The fault-injection overlay: scheduled islands and storms."""

    def _links(self, **kwargs):
        return PartitionScheduleLinks(SynchronousLinks(1.0), **kwargs)

    def test_empty_schedule_is_the_base_model(self):
        links = self._links()
        for t in (0.0, 5.0, 100.0):
            assert links.delivery_delay(msg(sent_at=t)) == 1.0
        assert links.partitioned_drops == 0

    def test_island_crossings_drop_during_the_window(self):
        # Replica indices 0 and 1 live at wire addresses -1 and -2.
        links = self._links(partitions=[(10.0, 20.0, [1])])
        crossing = msg(sender=-1, receiver=-2, sent_at=15.0)
        assert links.delivery_delay(crossing) is None
        assert links.delivery_delay(msg(sender=-2, receiver=-1, sent_at=15.0)) is None
        assert links.partitioned_drops == 2

    def test_island_internal_traffic_survives(self):
        links = self._links(partitions=[(10.0, 20.0, [1, 2])])
        internal = msg(sender=-2, receiver=-3, sent_at=15.0)
        assert links.delivery_delay(internal) == 1.0

    def test_drop_is_judged_at_the_send_instant(self):
        links = self._links(partitions=[(10.0, 20.0, [1])])
        crossing = dict(sender=-1, receiver=-2)
        assert links.delivery_delay(msg(sent_at=9.9, **crossing)) == 1.0
        assert links.delivery_delay(msg(sent_at=20.0, **crossing)) == 1.0
        assert links.severed(msg(sent_at=10.0, **crossing))

    def test_clients_always_sit_outside_the_island(self):
        links = self._links(partitions=[(0.0, 100.0, [1])])
        # Client (pid 0) to islanded replica: severed both ways.
        assert links.delivery_delay(msg(sender=0, receiver=-2, sent_at=5.0)) is None
        assert links.delivery_delay(msg(sender=-2, receiver=0, sent_at=5.0)) is None
        # Client to majority-side replica: untouched.
        assert links.delivery_delay(msg(sender=0, receiver=-1, sent_at=5.0)) == 1.0

    def test_storms_scale_delay_and_stack(self):
        links = self._links(storms=[(0.0, 50.0, 2.0), (25.0, 75.0, 3.0)])
        assert links.delivery_delay(msg(sent_at=10.0)) == 2.0
        assert links.delivery_delay(msg(sent_at=30.0)) == 6.0  # overlap stacks
        assert links.delivery_delay(msg(sent_at=60.0)) == 3.0
        assert links.delivery_delay(msg(sent_at=80.0)) == 1.0

    def test_storms_scale_but_never_drop(self):
        links = self._links(storms=[(0.0, 50.0, 4.0)])
        assert links.delivery_delay(msg(sent_at=10.0)) == 4.0
        assert links.partitioned_drops == 0

    def test_base_losses_stay_lost_under_storms(self):
        lossy = PartitionScheduleLinks(
            FairLossyLinks(make_rng(7), loss=1.0 - 1e-9),
            storms=[(0.0, 100.0, 2.0)],
        )
        assert lossy.delivery_delay(msg(sent_at=5.0)) is None
        assert lossy.partitioned_drops == 0  # base loss, not a partition

    def test_plain_base_keeps_the_one_fate_path(self):
        assert not hasattr(self._links(storms=[(0.0, 1.0, 2.0)]), "delivery_plan")

    def test_corrupting_base_keeps_corrupting_outside_islands(self):
        links = PartitionScheduleLinks(
            CorruptingLinks(SynchronousLinks(1.0), make_rng(3), rate=1.0),
            partitions=[(10.0, 20.0, [0])],
            storms=[(30.0, 40.0, 2.0)],
        )
        payload = (1, "R", (1, 0), 7)
        for sent_at, delay in ((5.0, 1.0), (35.0, 2.0)):
            [(fate_delay, fated)] = links.delivery_plan(msg(0, -1, payload=payload, sent_at=sent_at))
            assert fate_delay == delay
            assert fated.payload[:-1] == payload[:-1] and fated.payload[-1] != 7
        assert links.base.corrupted == 2

    def test_severed_messages_lose_every_fate(self):
        links = PartitionScheduleLinks(
            DuplicatingLinks(SynchronousLinks(1.0), make_rng(3), rate=1.0),
            partitions=[(10.0, 20.0, [0])],
        )
        crossing = msg(0, -1, sent_at=15.0)
        assert links.delivery_plan(crossing) == [(None, crossing)]
        assert links.partitioned_drops == 1
        assert links.base.duplicated == 0

    def test_storms_scale_every_duplicated_fate(self):
        links = PartitionScheduleLinks(
            DuplicatingLinks(SynchronousLinks(1.0), make_rng(3), rate=1.0, lag=1.0),
            storms=[(0.0, 50.0, 3.0)],
        )
        m = msg(sent_at=10.0)
        assert links.delivery_plan(m) == [(3.0, m), (6.0, m)]

    def test_window_validation(self):
        with pytest.raises(ValueError, match="non-empty island"):
            self._links(partitions=[(10.0, 20.0, [])])
        with pytest.raises(ValueError, match="end > start"):
            self._links(partitions=[(20.0, 10.0, [1])])
        with pytest.raises(ValueError, match="factor >= 1"):
            self._links(storms=[(0.0, 10.0, 0.5)])
