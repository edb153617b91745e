"""Point-to-point channels with pluggable timing and loss.

A channel behaviour answers one question per message: *when* does it
arrive (or ``None`` for a drop).  The shipped behaviours span the
assumptions the related work uses:

* :class:`SynchronousLinks` -- a deterministic fixed delay on every
  link (the reference model for backend-equivalence tests of the
  register emulation, :mod:`repro.memory.emulated`);
* :class:`TimelyLinks` -- always-bounded delays (synchronous control);
* :class:`RampLinks` -- delays decaying linearly to timely at a GST
  (the message-passing twin of the PR 2 ``GstRampDelay`` adversary);
* :class:`FairLossyLinks` -- arbitrary finite delays and probabilistic
  drops, but infinitely many messages get through (the fair-lossy
  channels of [2]);
* :class:`EventuallyTimelyLinks` -- the *eventual t-source* assumption
  of Aguilera et al. [2]: after an unknown ``gst``, messages **from a
  designated source set** are delivered within a bound; everything else
  stays fair-lossy;
* :class:`PartitionScheduleLinks` -- a *dynamic* overlay driven by a
  fault plan (:mod:`repro.faults`): scheduled partition windows sever
  an island of replicas from the rest of the world until they heal,
  and message-storm windows multiply every delay by a congestion
  factor.

Beyond timing and loss, a behaviour may implement the optional
``delivery_plan(message)`` hook to *mutate* traffic -- returning any
number of ``(delay, message)`` deliveries per send.  That is how the
mutating-fault adversaries work: :class:`CorruptingLinks` flips payload
values in flight and :class:`DuplicatingLinks` delivers some messages
twice (the ROADMAP's "Byzantine / mutating link faults" axis).

This mirrors how :mod:`repro.sim.schedulers` realizes AWB1: the
assumption lives in the environment model, not in the algorithm.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Protocol, Tuple

from repro.sim.events import intern_kind
from repro.sim.rng import RngRegistry


class Message(NamedTuple):
    """One message in flight (immutable; ``_replace`` derives a mutated copy)."""

    sender: int
    receiver: int
    kind: str
    payload: Any
    sent_at: float


_new_tuple = tuple.__new__


class ChannelBehavior(Protocol):
    """Decides the fate of each message."""

    def delivery_delay(self, message: Message) -> Optional[float]:
        """Delay until delivery, or ``None`` when the message is lost."""
        ...


class SynchronousLinks:
    """Deterministic fixed one-way delay on every link, no loss.

    The strongest (and simplest) link model: every message arrives
    exactly ``delta`` after it is sent.  It draws no randomness at all,
    which makes it the reference model for backend-equivalence tests --
    a run whose registers are emulated over synchronous links consumes
    exactly the same random streams as a shared-memory run of the same
    seed, so the two must elect the same leader.
    """

    def __init__(self, delta: float = 0.25) -> None:
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.delta = delta

    def delivery_delay(self, message: Message) -> Optional[float]:
        """Always ``delta``; never a drop."""
        return self.delta


class RampLinks:
    """Link delays that shrink linearly until a GST, then stay timely.

    The message-passing twin of
    :class:`repro.sim.schedulers.GstRampDelay` (the PR 2 adversary):
    instead of asynchrony switching off at an unknown global
    stabilization time, the delay scale decays *gradually* from
    ``start_scale``x down to 1x at ``gst`` -- a moving target for any
    protocol phase that must collect a quorum.  From ``gst`` on, every
    link is timely in ``[lo, hi]``.
    """

    def __init__(
        self,
        rng: RngRegistry,
        gst: float,
        start_scale: float = 8.0,
        lo: float = 0.5,
        hi: float = 2.0,
    ) -> None:
        if not 0 < lo <= hi:
            raise ValueError("need 0 < lo <= hi")
        if gst < 0 or start_scale < 1.0:
            raise ValueError("need gst >= 0 and start_scale >= 1")
        self.gst = gst
        self.start_scale = start_scale
        self.lo, self.hi = lo, hi
        self._streams = rng.per_link("link")

    def scale_at(self, time: float) -> float:
        """The delay multiplier in effect at ``time`` (1.0 from gst on)."""
        if self.gst <= 0 or time >= self.gst:
            return 1.0
        frac = time / self.gst
        return self.start_scale + (1.0 - self.start_scale) * frac

    def delivery_delay(self, message: Message) -> Optional[float]:
        """A timely draw scaled by the ramp at the send instant."""
        stream = self._streams[message.sender, message.receiver]
        lo = self.lo
        return (lo + (self.hi - lo) * stream.random()) * self.scale_at(message.sent_at)


class TimelyLinks:
    """Uniformly bounded delays on every link, no loss."""

    def __init__(self, rng: RngRegistry, lo: float = 0.5, hi: float = 2.0) -> None:
        if not 0 < lo <= hi:
            raise ValueError("need 0 < lo <= hi")
        self.lo, self.hi = lo, hi
        self._streams = rng.per_link("link")

    def delivery_delay(self, message: Message) -> Optional[float]:
        """A uniform draw in ``[lo, hi]``; never a drop."""
        stream = self._streams[message.sender, message.receiver]
        lo = self.lo
        return lo + (self.hi - lo) * stream.random()  # Random.uniform's body, frame-free


class FairLossyLinks:
    """Arbitrary finite delays, probabilistic loss.

    Fair-lossy in the [2] sense: each message is independently dropped
    with ``loss`` < 1, so infinitely many of an infinite send sequence
    get through.  ``cap`` keeps delays finite for the simulation
    horizon without bounding them meaningfully.
    """

    def __init__(
        self,
        rng: RngRegistry,
        loss: float = 0.2,
        lo: float = 0.5,
        hi: float = 30.0,
        cap: float = 80.0,
    ) -> None:
        if not 0 <= loss < 1:
            raise ValueError("loss must be in [0, 1)")
        if not 0 < lo <= hi <= cap:
            raise ValueError("need 0 < lo <= hi <= cap")
        self.loss, self.lo, self.hi, self.cap = loss, lo, hi, cap
        self._streams = rng.per_link("link")

    def delivery_delay(self, message: Message) -> Optional[float]:
        """Drop with probability ``loss``; otherwise an arbitrary finite delay."""
        stream = self._streams[message.sender, message.receiver]
        if stream.random() < self.loss:
            return None
        # Occasionally spike toward the cap: "arbitrary but finite".
        hi = self.hi
        if stream.random() < 0.1:
            return hi + (self.cap - hi) * stream.random()
        lo = self.lo
        return lo + (hi - lo) * stream.random()


class EventuallyTimelyLinks:
    """The eventual t-source assumption of [2].

    Messages from a pid in ``sources`` sent at or after ``gst`` are
    delivered within ``[timely_lo, timely_hi]`` and never lost; all
    other traffic follows ``base`` (typically fair-lossy).
    """

    def __init__(
        self,
        base: ChannelBehavior,
        sources: Iterable[int],
        gst: float,
        rng: RngRegistry,
        timely_lo: float = 0.5,
        timely_hi: float = 2.0,
    ) -> None:
        if not 0 < timely_lo <= timely_hi:
            raise ValueError("need 0 < timely_lo <= timely_hi")
        self.base = base
        self.sources = frozenset(sources)
        self.gst = gst
        self.timely_lo, self.timely_hi = timely_lo, timely_hi
        self._streams = rng.per_link("timely")

    def delivery_delay(self, message: Message) -> Optional[float]:
        """Timely for post-gst source traffic; ``base`` for everything else."""
        if message.sender in self.sources and message.sent_at >= self.gst:
            stream = self._streams[message.sender, message.receiver]
            lo = self.timely_lo
            return lo + (self.timely_hi - lo) * stream.random()
        return self.base.delivery_delay(message)


def _corrupt_value(value: Any, stream: Any) -> Any:
    """A *different* value of the same shape (bool flip, int jitter)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + stream.randrange(1, 6)
    return value


class CorruptingLinks:
    """Mutating-fault adversary: values are occasionally corrupted in flight.

    Timing delegates to ``base``; with probability ``rate`` the trailing
    payload field is replaced by a *different* value of the same type
    (bools flip, ints jitter upward) before delivery.  Only messages
    whose payload is a tuple ending in an int/bool are eligible -- for
    the ABD register emulation that is exactly the value-carrying
    ``abd.write`` and ``abd.read-reply`` traffic, while op-ids, register
    names and timestamps stay intact.  This is the fault class a correct
    crash-stop emulation does **not** tolerate: the Theorem 1 audit is
    expected to *fail* under it (the negative-scenario family), unlike
    under :class:`DuplicatingLinks`.
    """

    def __init__(self, base: ChannelBehavior, rng: RngRegistry, rate: float = 0.1) -> None:
        if not 0 <= rate <= 1:
            raise ValueError("rate must be in [0, 1]")
        self.base = base
        self.rate = rate
        self._streams = rng.per_link("corrupt")
        self.corrupted = 0

    def delivery_delay(self, message: Message) -> Optional[float]:
        """Timing is the base model's; corruption never drops."""
        return self.base.delivery_delay(message)

    def delivery_plan(self, message: Message) -> List[Tuple[Optional[float], Message]]:
        """One delivery, payload possibly corrupted."""
        delay = self.base.delivery_delay(message)
        payload = message.payload
        if (
            delay is not None
            and isinstance(payload, tuple)
            and payload
            and isinstance(payload[-1], (bool, int))
        ):
            stream = self._streams[message.sender, message.receiver]
            if stream.random() < self.rate:
                self.corrupted += 1
                mutated = payload[:-1] + (_corrupt_value(payload[-1], stream),)
                message = message._replace(payload=mutated)
        return [(delay, message)]


class DuplicatingLinks:
    """Mutating-fault adversary: some messages are delivered twice.

    Timing delegates to ``base``; with probability ``rate`` a second,
    later copy of the message is delivered as well.  Quorum protocols
    built on idempotent, timestamp-monotone application (the ABD
    emulation) must absorb duplicates without any effect -- the positive
    twin of :class:`CorruptingLinks` in the mutating-fault family.
    """

    def __init__(
        self,
        base: ChannelBehavior,
        rng: RngRegistry,
        rate: float = 0.2,
        lag: float = 1.0,
    ) -> None:
        if not 0 <= rate <= 1:
            raise ValueError("rate must be in [0, 1]")
        if lag <= 0:
            raise ValueError("lag must be positive")
        self.base = base
        self.rate = rate
        self.lag = lag
        self._streams = rng.per_link("dup")
        self.duplicated = 0

    def delivery_delay(self, message: Message) -> Optional[float]:
        """Timing is the base model's; duplication never drops."""
        return self.base.delivery_delay(message)

    def delivery_plan(self, message: Message) -> List[Tuple[Optional[float], Message]]:
        """The base delivery, plus an occasional delayed duplicate."""
        delay = self.base.delivery_delay(message)
        fates: List[Tuple[Optional[float], Message]] = [(delay, message)]
        if delay is not None:
            stream = self._streams[message.sender, message.receiver]
            if stream.random() < self.rate:
                self.duplicated += 1
                fates.append((delay + self.lag, message))
        return fates


class PartitionScheduleLinks:
    """Dynamic partitions and congestion storms over a base model.

    The link-level half of the fault-injection subsystem
    (:mod:`repro.faults`): ``partitions`` is a schedule of
    ``(start, end, island)`` windows during which the *island* -- a set
    of replica indices (wire address ``-(index + 1)``) -- is cut off
    from everything outside it, and ``storms`` is a schedule of
    ``(start, end, factor)`` windows during which every delivery delay
    is multiplied by ``factor`` (congestion, not loss).  Both are
    judged at the send instant, like :class:`RampLinks` judges its
    ramp.  Timing outside any window delegates to ``base`` unchanged,
    so an empty schedule is behaviourally identical to ``base``.

    Client processes (non-negative pids) always sit on the majority
    side: a message is dropped exactly when one endpoint is inside an
    active island and the other is not.

    A mutating ``base`` (one with a ``delivery_plan``) keeps mutating:
    the overlay then offers a ``delivery_plan`` too, which drops every
    fate of a severed message and storm-scales every other fate.  Over
    a plain base the overlay stays a one-fate ``delivery_delay`` model.
    """

    def __init__(
        self,
        base: ChannelBehavior,
        partitions: Iterable[Tuple[float, float, Iterable[int]]] = (),
        storms: Iterable[Tuple[float, float, float]] = (),
    ) -> None:
        self.base = base
        self.partitions: Tuple[Tuple[float, float, frozenset], ...] = tuple(
            (float(start), float(end), frozenset(int(i) for i in island))
            for start, end, island in partitions
        )
        self.storms: Tuple[Tuple[float, float, float], ...] = tuple(
            (float(start), float(end), float(factor)) for start, end, factor in storms
        )
        for start, end, island in self.partitions:
            if not island or end <= start:
                raise ValueError("partition windows need end > start and a non-empty island")
        for start, end, factor in self.storms:
            if end <= start or factor < 1.0:
                raise ValueError("storm windows need end > start and factor >= 1")
        self.partitioned_drops = 0
        if getattr(base, "delivery_plan", None) is not None:
            self.delivery_plan = self._scheduled_plan

    @staticmethod
    def _replica_index(node_id: int) -> Optional[int]:
        """Wire address -> replica index (clients map to ``None``)."""
        return -node_id - 1 if node_id < 0 else None

    def severed(self, message: Message) -> bool:
        """True when an active island separates sender from receiver."""
        t = message.sent_at
        s = self._replica_index(message.sender)
        r = self._replica_index(message.receiver)
        for start, end, island in self.partitions:
            if start <= t < end and (s in island) != (r in island):
                return True
        return False

    def storm_factor(self, time: float) -> float:
        """The combined delay multiplier of the storms active at ``time``."""
        factor = 1.0
        for start, end, storm in self.storms:
            if start <= time < end:
                factor *= storm
        return factor

    def delivery_delay(self, message: Message) -> Optional[float]:
        """Drop across an active island; otherwise storm-scaled base delay."""
        if self.severed(message):
            self.partitioned_drops += 1
            return None
        delay = self.base.delivery_delay(message)
        if delay is None:
            return None
        return delay * self.storm_factor(message.sent_at)

    def _scheduled_plan(self, message: Message) -> List[Tuple[Optional[float], Message]]:
        """The base's fates: all dropped across an active island,
        storm-scaled otherwise (bound as ``delivery_plan`` only over a
        mutating base)."""
        if self.severed(message):
            self.partitioned_drops += 1
            return [(None, message)]
        factor = self.storm_factor(message.sent_at)
        return [
            (None if delay is None else delay * factor, fated)
            for delay, fated in self.base.delivery_plan(message)
        ]


#: A route's handler: called with the message at its delivery instant.
Handler = Callable[[Message], None]

#: The kind id of every delivery entry the network files.
_MESSAGE_KIND = intern_kind("message")


class Network:
    """The message fabric: send, count, deliver through the kernel.

    Its owner -- a message-passing :class:`~repro.core.runner.Run`
    (through each :class:`~repro.netsim.runtime.MpProcessRuntime`), or
    the register emulation of :mod:`repro.memory.emulated` -- installs
    the routes: a kind -> handler table per address
    (:meth:`install_routes`).  A send looks the message's handler up and
    files a one-argument entry ``(time, seq, kind_id, receiver, handler,
    message)`` straight onto the kernel's heap with ``Simulator.push``
    (one C-level call per delivery; the network is one of the kernel's
    raw producers, so it refuses a bad delay itself), so a delivery is
    one ``handler(message)`` call; a kind with no handler at its address
    raises at the send.  The handler owns the delivery: it counts it in
    :attr:`delivered` and serves it.  The network itself only decides
    timing/loss and keeps the traffic accounting
    (sent/delivered/dropped).

    The channel's hooks (``delivery_delay`` and the optional
    ``delivery_plan``) are bound when :attr:`behavior` is assigned, not
    looked up per message; reassigning it (a fault overlay wrapping the
    links mid-setup) rebinds them for the next send.  A
    :class:`SynchronousLinks` channel's delay is read then too: every
    message takes that one constant, with no call per message (a valid
    ``delta`` only -- an invalid one stays on the per-message path,
    which refuses it at the send).
    """

    def __init__(self, sim: Any, behavior: ChannelBehavior) -> None:
        self._sim = sim
        self._push = sim.push
        self._seq = sim.next_seq
        self.behavior = behavior
        self.sent_by_pid: Dict[int, int] = defaultdict(int)
        self.delivered: int = 0
        self.dropped: int = 0
        self.install_routes({})

    @property
    def behavior(self) -> ChannelBehavior:
        """The channel model deciding every message's fate."""
        return self._behavior

    @behavior.setter
    def behavior(self, behavior: ChannelBehavior) -> None:
        """Install ``behavior`` and bind its hooks for the next send."""
        self._behavior = behavior
        self._delay_of = behavior.delivery_delay
        self._plan_of = getattr(behavior, "delivery_plan", None)
        self._constant_delay: Optional[float] = (
            behavior.delta
            if type(behavior) is SynchronousLinks and behavior.delta > 0  # also rejects NaN
            else None
        )

    def install_routes(self, handlers: Mapping[str, Handler], address: Optional[int] = None) -> None:
        """Deliver each message kind in ``handlers`` to its handler.

        With ``address`` the table serves the messages addressed there;
        without, it is the table of every address that has none of its
        own, and it replaces every table installed before
        (``install_routes({})`` uninstalls all: the owner's end-of-run
        release, which breaks the owner -> network -> handler -> owner
        cycle).
        """
        if address is None:
            self._routes: Dict[int, Mapping[str, Handler]] = defaultdict(lambda: handlers)
        else:
            self._routes[address] = handlers

    def install_delivery(self, callback: Handler) -> None:
        """Route every message, whatever its kind or address, to
        ``callback(message)``; each delivery is counted first."""

        def deliver(message: Message) -> None:
            self.delivered += 1
            callback(message)

        self.install_routes(defaultdict(lambda: deliver))

    def _file(self, now: float, receiver: int, handler: Handler, delay: Optional[float], message: Message) -> None:
        """File one delivery entry: a ``None`` delay is a drop, and a
        non-positive or NaN one is refused."""
        if delay is None:
            self.dropped += 1
        elif not delay > 0:  # also rejects NaN
            raise ValueError("channel behaviour produced non-positive delay")
        else:
            # Never cancelled: the kernel's one-argument entry.
            self._push((now + delay, self._seq(), _MESSAGE_KIND, receiver, handler, message))

    def multicast(self, sender: int, receivers: Iterable[int], kind: str, payload: Any) -> None:
        """Send one message to each of ``receivers``, in order.

        The channel decides each message's fate: a behaviour with the
        optional ``delivery_plan`` hook may return any number of
        ``(delay, message)`` deliveries per message (mutated payloads,
        duplicates); plain behaviours yield exactly one fate via
        ``delivery_delay``, and a synchronous channel its one constant
        delay.  Receivers are served in iteration order, so per-link
        random streams draw exactly as one ``send`` each would.
        """
        now, routes = self._sim._now, self._routes
        delay, push, seq = self._constant_delay, self._push, self._seq
        delay_of, plan = self._delay_of, self._plan_of
        sent = 0
        for receiver in receivers:
            try:
                handler = routes[receiver][kind]
            except KeyError:
                raise KeyError(f"no route for {kind!r} messages to {receiver}") from None
            sent += 1
            # ``Message(...)`` without the Python frame of its ``__new__``.
            message = _new_tuple(Message, (sender, receiver, kind, payload, now))
            if delay is not None:
                push((now + delay, seq(), _MESSAGE_KIND, receiver, handler, message))
            elif plan is None:
                self._file(now, receiver, handler, delay_of(message), message)
            else:
                for fate, fated in plan(message):
                    self._file(now, receiver, handler, fate, fated)
        if sent:
            self.sent_by_pid[sender] += sent

    def send(self, sender: int, receiver: int, kind: str, payload: Any) -> None:
        """Send one message; the channel decides its fate (as for one
        receiver of :meth:`multicast`)."""
        try:
            handler = self._routes[receiver][kind]
        except KeyError:
            raise KeyError(f"no route for {kind!r} messages to {receiver}") from None
        now = self._sim._now
        message = _new_tuple(Message, (sender, receiver, kind, payload, now))
        delay = self._constant_delay
        if delay is not None:
            self._push((now + delay, self._seq(), _MESSAGE_KIND, receiver, handler, message))
        elif self._plan_of is None:
            self._file(now, receiver, handler, self._delay_of(message), message)
        else:
            for fate, fated in self._plan_of(message):
                self._file(now, receiver, handler, fate, fated)
        self.sent_by_pid[sender] += 1

    def broadcast(self, sender: int, n: int, kind: str, payload: Any) -> None:
        """Send to every process except the sender."""
        self.multicast(sender, [r for r in range(n) if r != sender], kind, payload)

    @property
    def total_sent(self) -> int:
        """Messages handed to the network across all senders."""
        return sum(self.sent_by_pid.values())


__all__ = [
    "ChannelBehavior",
    "CorruptingLinks",
    "DuplicatingLinks",
    "EventuallyTimelyLinks",
    "FairLossyLinks",
    "Message",
    "Network",
    "PartitionScheduleLinks",
    "RampLinks",
    "SynchronousLinks",
    "TimelyLinks",
]
