"""ABD-style quorum emulation of the paper's registers over messages.

The paper assumes 1WMR *regular* registers as a primitive.  Deployments
without physical shared memory (the cluster the paper's Section 1
motivates next to the SAN) must **emulate** those registers over
message passing.  This module implements the classic
Attiya-Bar-Noy-Dolev construction on top of :mod:`repro.netsim`:

* the register namespace is replicated across ``m`` replica nodes, each
  holding a ``(timestamp, value)`` pair per register;
* a **write** stamps the value with the writer's next timestamp,
  broadcasts it to every replica and completes on a majority of acks;
* a **read** queries every replica and completes on a majority of
  replies, returning the value with the largest timestamp.

Any two majorities intersect, so a read that starts after a write
completed sees it; a read concurrent with a write may return either
value -- exactly the *regular* register the paper requires (single
writer per register makes the read write-back phase of atomic ABD
unnecessary).  Multi-writer registers (the Section 3.5 variant) use
``(counter, pid)`` timestamps with a query phase before the write
phase; their ``fetch&add`` becomes the racy two-step
read-then-write emulation, which the variant is documented to tolerate
(lost increments only slow suspicion growth).

**Consistency levels** (``EmulationConfig.consistency``): the default
``"regular"`` level is the single-phase read above -- all the paper
needs.  The ``"atomic"`` level adds the classic ABD **write-back
phase**: before returning, a read propagates the ``(timestamp, value)``
it is about to return to a majority of replicas, which closes the
new/old-inversion window and upgrades the register to Lamport's
*atomic* level (both for the 1WMR registers and for the
``(counter, pid)``-stamped multi-writer path).  With the per-operation
history recorder on (``record_history``), every completed operation
becomes one :class:`~repro.memory.linearizability.OpRecord` -- the
record the SAN disk keeps too -- and the one interval checker in
:mod:`repro.memory.linearizability` audits the run: atomic histories
must be linearizable, regular histories must satisfy regularity --
and :mod:`repro.memory.anomaly` pins a deterministic schedule where
the two levels genuinely diverge.

The emulation tolerates crashes of **up to a minority** of replicas and
message loss (pending phases retransmit to unacked replicas every
``retry_interval``; the opt-in ``backoff`` retry policy swaps the
constant timer for jittered exponential backoff).  Link timing/loss is
pluggable through the :data:`LINK_MODELS` registry over the
:mod:`repro.netsim.network` behaviours -- including the PR 2
adversaries (GST ramps, fair loss).

**One quorum rule.**  Every quorum decision in this module is the same
predicate, :func:`repro.memory.membership.quorum_met`: *the reply set
holds a majority of every config currently in force*.  ``_rule`` is
that list of configs -- one normally, two inside a membership
transition window -- and ``_serving`` the union of their members,
which is who every phase broadcasts to.  Read and write phases, ABD
write-backs, amnesia resyncs and both halves of a state transfer all
consult it; nothing else in the package compares replies to a majority.

**One state-sync round.**  Bringing a replica up to date is always the
same retransmitted round (:class:`_SyncRound`): *collect* ``abd.sync``
snapshots from a quorum, *merge* them max-timestamp per register,
*deliver* the result.  Its two users differ only in the collect target
set and the delivery step:

* **Amnesia resync** -- fault injection (``EmulationConfig.fault_plan``,
  a :mod:`repro.faults` timeline) adds *transient* crashes.  A
  recovering replica rejoins with an empty store, applies and acks
  writes (timestamps make that safe) but refuses reads until its round
  has collected from a quorum of the *other* serving replicas (the rule
  in force minus itself) and delivered into its own store.  Partition
  /heal windows and message storms from the same plan compile into a
  link-level overlay.
* **Config transfer** -- dynamic membership
  (``EmulationConfig.membership_plan``, a
  :mod:`repro.memory.membership` timeline) changes the replica set
  itself.  Each ``join``/``leave`` opens a RAMBO-style *two-config
  transition window*: the proposed
  :class:`~repro.memory.membership.ReplicaConfig` joins the rule, so
  every quorum intersects a **majority of both configs** and reads take
  the max timestamp across both member sets.  After ``transfer_delay``
  a round collects from a majority of the old config and delivers by
  pushing ``abd.transfer`` to the new members; once a majority of the
  new config acks, the new config is *installed* and the old one
  garbage-collected.  A joiner starts as an amnesiac until the push
  lands.  Overlapping events queue and transition one at a time, so
  back-to-back reconfigurations are safe.

One **deliberately broken mode** stays selectable, at its minimum
footprint: ``transition="single-config"`` never puts the proposed
config in force and installs it without a transfer.  It is the
benchmark selfcheck's known-red cell (the ``membership-canary``
scenario).  Every other broken protocol lives on the test side, as a
patch of this module's methods; production config names none of them.

:class:`EmulatedMemory` subclasses
:class:`~repro.memory.memory.SharedMemory`: the namespace, the access
logs, the window queries and the read accounting are all
inherited, so every theorem monitor, census and report in the repo
consumes emulated runs unchanged.  What changes is the *operation
semantics*: reads and writes become asynchronous phases behind the
completion-callback API (``emu_read`` / ``emu_write``) the SAN disk
model offers too, so the process runtime (:mod:`repro.core.runner`)
drives both interval substrates through one blocking-operation path --
here realized by an actual replicated protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

from repro.faults.plan import FaultEvent, FaultPlan
from repro.memory.linearizability import INITIAL_TS, OpRecord
from repro.memory.membership import (
    TRANSITION_MODES,
    MembershipEvent,
    MembershipPlan,
    QuorumRule,
    ReplicaConfig,
    quorum_met,
    quorum_rule,
)
from repro.memory.memory import SharedMemory
from repro.memory.mwmr import MultiWriterRegister
from repro.memory.register import AtomicRegister, OwnershipError
from repro.netsim.network import (
    ChannelBehavior,
    CorruptingLinks,
    DuplicatingLinks,
    FairLossyLinks,
    Message,
    Network,
    PartitionScheduleLinks,
    RampLinks,
    SynchronousLinks,
    TimelyLinks,
)
from repro.sim.events import EventLane
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry

#: The consistency levels the emulation can provide (Lamport's
#: hierarchy): ``regular`` is the single-phase read the paper needs,
#: ``atomic`` adds the ABD write-back phase to every read.
CONSISTENCY_LEVELS: Tuple[str, ...] = ("regular", "atomic")

#: Retransmission policies for pending quorum phases: ``fixed`` -- the
#: original constant ``retry_interval`` timer (draws no randomness, so
#: default-config runs stay byte-identical across releases) -- and
#: ``backoff`` -- exponential backoff doubling from ``retry_interval``
#: up to ``retry_cap``, with multiplicative sim-RNG jitter to break
#: retransmission synchrony under congestion.
RETRY_POLICIES: Tuple[str, ...] = ("fixed", "backoff")


#: Link-model name -> ``(rng, params) -> ChannelBehavior`` factory.
#: ``sync`` draws no randomness at all, which is what makes the
#: backend-equivalence tests exact; the others re-use the netsim
#: behaviours (``gst-ramp`` is the PR 2 adversary ported to links).
#: ``corruption`` and ``duplication`` are the mutating-fault adversaries
#: over synchronous timing (``delta`` plus a mutation ``rate``): the
#: emulation must *survive* duplication (timestamp application is
#: idempotent) but is expected to *fail* the Theorem 1 audit under
#: value corruption -- the negative-scenario family.
LINK_MODELS: Dict[str, Callable[[RngRegistry, Dict[str, Any]], ChannelBehavior]] = {
    "sync": lambda rng, p: SynchronousLinks(**p),
    "timely": lambda rng, p: TimelyLinks(rng, **p),
    "lossy": lambda rng, p: FairLossyLinks(rng, **p),
    "gst-ramp": lambda rng, p: RampLinks(rng, **p),
    "corruption": lambda rng, p: CorruptingLinks(
        SynchronousLinks(p.pop("delta", 0.25)), rng, **p
    ),
    "duplication": lambda rng, p: DuplicatingLinks(
        SynchronousLinks(p.pop("delta", 0.25)), rng, **p
    ),
    # The fault-injection overlay on synchronous timing: scheduled
    # partition/heal windows and message storms (repro.faults plans
    # compile their link-level faults into exactly this model).
    "partition-schedule": lambda rng, p: PartitionScheduleLinks(
        SynchronousLinks(p.pop("delta", 0.25)), **p
    ),
}


@dataclass(frozen=True)
class EmulationConfig:
    """Plain-data knobs of one register emulation.

    Every field is JSON-serializable (ints, floats, strings, flat
    dicts), so configs travel inside scenario-factory kwargs through
    the parallel engine's content-hashed specs.

    Parameters
    ----------
    replicas:
        Number of replica nodes holding the register copies; quorums
        are majorities, so the emulation tolerates
        ``(replicas - 1) // 2`` replica crashes.
    links:
        Link-model name from :data:`LINK_MODELS`.
    link_params:
        Keyword arguments for the link model (e.g. ``{"delta": 0.25}``
        for ``sync``, ``{"loss": 0.1}`` for ``lossy``).
    retry_interval:
        Retransmission period for pending phases (loss tolerance; with
        loss-free link models the retransmit timers arm but never win).
    retry_policy:
        Retransmission policy (:data:`RETRY_POLICIES`): ``"fixed"`` --
        the constant-interval timer, the default, drawing no randomness
        -- or ``"backoff"`` -- exponential backoff doubling from
        ``retry_interval`` up to ``retry_cap`` with multiplicative
        sim-RNG jitter (``retry_jitter``).
    retry_cap:
        Upper bound on the backoff delay (pre-jitter); ignored by the
        fixed policy.
    retry_jitter:
        Jitter fraction of the backoff policy: each armed delay is
        scaled by a uniform draw from ``[1, 1 + retry_jitter]`` out of
        the run's seeded RNG registry.  The fixed policy draws nothing.
    replica_crash_times:
        ``{replica index: crash time}`` -- *permanent* crash-stop for
        replicas.  Must leave a majority alive or quorums become
        unreachable.  Transient crashes belong in ``fault_plan``.
    fault_plan:
        A :class:`repro.faults.plan.FaultPlan` timeline (as a tuple of
        :class:`~repro.faults.plan.FaultEvent`): transient replica
        crashes with recover-and-resync, partition/heal windows and
        message storms.  Crash/recover pairs are applied by
        :meth:`EmulatedMemory.start`; partition and storm windows are
        compiled into a
        :class:`~repro.netsim.network.PartitionScheduleLinks` overlay
        on the configured link model.  A recovering replica always runs
        the quorum state-resync before serving reads again.
    membership_plan:
        A :class:`repro.memory.membership.MembershipPlan` timeline (as
        a tuple of :class:`~repro.memory.membership.MembershipEvent`):
        operator-style ``join``/``leave`` transitions of the replica
        member set.  Each event opens a two-config transition window
        (quorums intersect majorities of both configs) that a
        state-transfer round closes by installing the new
        :class:`~repro.memory.membership.ReplicaConfig`.  Joins extend
        the replica array, so they must carry sequential fresh indices.
    transfer_delay:
        How long a transition window stays open before the
        state-transfer round starts.  The window is where the
        dual-quorum discipline is exercised (and what the
        ``EMU_membership`` bench prices), so it is a real knob, not an
        implementation detail.
    transition:
        Transition-window discipline
        (:data:`repro.memory.membership.TRANSITION_MODES`):
        ``"dual-quorum"`` -- the correct RAMBO-style mode, the default
        -- or ``"single-config"`` -- the *deliberately broken* negative
        control where window quorums consult the old config only and
        the install skips the state transfer, which the history audit
        is expected to catch (the benchmark selfcheck's red cell).
    consistency:
        Consistency level of the emulated registers
        (:data:`CONSISTENCY_LEVELS`): ``"regular"`` -- single-phase
        reads, all the paper needs -- or ``"atomic"`` -- every read
        runs a second write-back phase propagating the returned
        ``(timestamp, value)`` to a majority before responding.
    record_history:
        Keep the per-operation interval history
        (:class:`~repro.memory.linearizability.OpRecord`) so the run
        can be audited by the interval-order checker in
        :mod:`repro.memory.linearizability`.  Off by default: the
        recorder is observability, not protocol, and perf profiles
        must not pay for it.
    """

    replicas: int = 3
    links: str = "sync"
    link_params: Tuple[Tuple[str, Any], ...] = ()
    retry_interval: float = 20.0
    retry_policy: str = "fixed"
    retry_cap: float = 160.0
    retry_jitter: float = 0.25
    replica_crash_times: Tuple[Tuple[int, float], ...] = ()
    fault_plan: Tuple[FaultEvent, ...] = ()
    membership_plan: Tuple[MembershipEvent, ...] = ()
    transfer_delay: float = 150.0
    transition: str = "dual-quorum"
    consistency: str = "regular"
    record_history: bool = False

    def __post_init__(self) -> None:
        if self.replicas < 2:
            raise ValueError("need at least two replicas for a meaningful quorum")
        if self.links not in LINK_MODELS:
            raise ValueError(
                f"unknown link model {self.links!r}; choose from {sorted(LINK_MODELS)}"
            )
        if self.consistency not in CONSISTENCY_LEVELS:
            raise ValueError(
                f"unknown consistency level {self.consistency!r}; "
                f"choose from {list(CONSISTENCY_LEVELS)}"
            )
        if self.retry_interval <= 0:
            raise ValueError("retry_interval must be positive")
        if self.retry_policy not in RETRY_POLICIES:
            raise ValueError(
                f"unknown retry policy {self.retry_policy!r}; "
                f"choose from {list(RETRY_POLICIES)}"
            )
        # The cap is inert under "fixed" (no backoff ever reaches it),
        # so only the backoff policy constrains it against the interval.
        if self.retry_policy == "backoff" and self.retry_cap < self.retry_interval:
            raise ValueError("retry_cap must be at least retry_interval")
        if not 0 <= self.retry_jitter < 1:
            raise ValueError("retry_jitter must be in [0, 1)")
        FaultPlan(self.fault_plan).validate(self.replicas)
        plan = MembershipPlan(self.membership_plan)
        plan.validate(self.replicas)
        if self.transition not in TRANSITION_MODES:
            raise ValueError(
                f"unknown transition mode {self.transition!r}; "
                f"choose from {list(TRANSITION_MODES)}"
            )
        if self.transfer_delay <= 0:
            raise ValueError("transfer_delay must be positive")
        crashes = dict(self.replica_crash_times)
        max_index = plan.max_replica_index(self.replicas)
        join_times = {ev.replica: ev.at for ev in plan if ev.kind == "join"}
        for idx, t in crashes.items():
            if not 0 <= idx < max_index:
                raise ValueError(f"replica index {idx} out of range for {max_index}")
            if t < 0:
                raise ValueError(f"negative crash time {t} for replica {idx}")
            if idx >= self.replicas and t < join_times[idx]:
                raise ValueError(
                    f"replica {idx} crashes at t={t} before it joins at "
                    f"t={join_times[idx]}"
                )
        self._validate_crash_liveness(plan, crashes)

    def _validate_crash_liveness(
        self, plan: MembershipPlan, crashes: Dict[int, float]
    ) -> None:
        """Walk membership and crash timelines together: at every step
        the *current* member set must keep a live majority, or quorums
        (and the transitions themselves) become unreachable.  Without a
        membership plan this is the static rule -- at most a minority of
        the replicas may crash -- since crashes only accumulate.
        Transient fault-plan crashes are exempt: campaigns may probe
        stalls."""
        timeline: List[Tuple[float, int, str, int]] = [
            (ev.at, 0, ev.kind, ev.replica) for ev in plan
        ]
        timeline.extend((t, 1, "crash", idx) for idx, t in crashes.items())
        members: Set[int] = set(range(self.replicas))
        crashed: Set[int] = set()
        for at, _, kind, idx in sorted(timeline):
            if kind == "join":
                members.add(idx)
            elif kind == "leave":
                members.discard(idx)
            else:
                crashed.add(idx)
            if len(members & crashed) > (len(members) - 1) // 2:
                raise ValueError(
                    f"at t={at} the member set {sorted(members)} has no live "
                    "majority; the emulation tolerates only a minority of "
                    "member crashes"
                )

    @property
    def majority(self) -> int:
        """Quorum size: any two majorities intersect."""
        return self.replicas // 2 + 1

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EmulationConfig":
        """Build a config from the plain-dict form (scenario kwargs,
        JSON payloads; JSON string keys are re-intified)."""
        defaults = {f.name: f.default for f in fields(cls)}
        unknown = set(payload) - set(defaults)
        if unknown:
            raise ValueError(f"unknown emulation option(s): {sorted(unknown)}")
        kwargs: Dict[str, Any] = {}
        for name, value in payload.items():
            if name in _FIELD_DECODERS:
                kwargs[name] = _FIELD_DECODERS[name](value)
            else:  # a scalar: coerce to its default's type (JSON 5 -> 5.0)
                kwargs[name] = type(defaults[name])(value)
        return cls(**kwargs)


#: ``field -> decode`` for the :class:`EmulationConfig` fields whose
#: plain-dict shape differs from their frozen in-memory shape; every
#: other field is a scalar.
_FIELD_DECODERS: Dict[str, Callable[[Any], Any]] = {
    "link_params": lambda v: tuple(sorted((v or {}).items())),
    "replica_crash_times": lambda v: tuple(
        sorted((int(i), float(t)) for i, t in dict(v or {}).items())
    ),
    "fault_plan": lambda v: tuple(FaultEvent.from_jsonable(ev) for ev in v or ()),
    "membership_plan": lambda v: tuple(MembershipEvent.from_jsonable(ev) for ev in v or ()),
}


_Stamped = Tuple[Tuple[int, int], Any]


def _merge_newer(store: Dict[str, _Stamped], entries: Iterable[Tuple[str, _Stamped]]) -> None:
    """Apply ``(name, (timestamp, value))`` entries monotonically: an
    entry lands only where ``store`` holds nothing newer, so merging
    snapshots in any order keeps the max-timestamp value per register
    and never regresses a write the store already applied."""
    for name, (ts, value) in entries:
        current = store.get(name)
        if current is None or ts > current[0]:
            store[name] = (ts, value)


#: The replica state of a register no seed names (one created after start).
_UNSEEDED: _Stamped = (INITIAL_TS, 0)


class ReplicaNode:
    """One replica: a ``{register: (timestamp, value)}`` store.

    Replicas are passive state machines -- they never initiate traffic,
    only answer queries and apply timestamped writes (monotonically:
    an older write arriving late never regresses the stored value).
    Each request kind has its own handler, routed by the emulation's
    network straight to this node (``on_read``, ``on_write``,
    ``on_sync``, ``on_transfer``); each counts its delivery and replies
    through :attr:`network`.  A crashed replica silently drops
    everything; a *recovering* replica (post-crash amnesia, pre-resync)
    applies and acks writes -- the timestamps make that safe -- but
    refuses to serve reads or to certify another replica's resync until
    its own quorum state-resync completes (the ``abd.sync`` round
    driven by :class:`EmulatedMemory`).  A node created *amnesiac* (a
    membership joiner) starts empty and recovering.
    """

    def __init__(
        self, index: int, network: Network, initial: Dict[str, _Stamped], amnesiac: bool = False
    ) -> None:
        self.index = index
        #: The replica's address on the emulation network: clients use
        #: their non-negative pid, so replicas live on the negative axis.
        self.node_id = -(index + 1)
        self.network = network
        #: The emulation's seeded register values: the state of every
        #: register this store holds nothing for.
        self._initial = initial
        self.store: Dict[str, _Stamped] = {} if amnesiac else dict(initial)
        self.crashed = False
        self.recovering = amnesiac
        self.writes_applied = 0
        self.reads_served = 0

    def on_read(self, message: Message) -> None:
        """Serve an ``abd.read``: reply with the stored stamped value."""
        self.network.delivered += 1
        if self.crashed or self.recovering:
            return  # amnesiac state must not enter any read quorum
        op_id, name = message.payload
        ts, value = self.store.get(name) or self._initial.get(name, _UNSEEDED)
        self.reads_served += 1
        self.network.send(self.node_id, message.sender, "abd.read-reply", (op_id, name, ts, value))

    def on_write(self, message: Message) -> None:
        """Apply an ``abd.write`` monotonically and ack it."""
        self.network.delivered += 1
        if self.crashed:
            return
        op_id, name, ts, value = message.payload
        current = self.store.get(name) or self._initial.get(name, _UNSEEDED)
        if ts > current[0]:
            self.store[name] = (ts, value)
            self.writes_applied += 1
        # The ack echoes the value this replica received: it is the
        # quorum certificate's value entry, letting the writer
        # cross-check that the payload survived the wire (the
        # value-integrity detector; timestamps alone cannot see a
        # corrupted value travelling under a valid timestamp).
        self.network.send(self.node_id, message.sender, "abd.write-ack", (op_id, name, ts, value))

    def on_sync(self, message: Message) -> None:
        """Answer an ``abd.sync`` with a snapshot of the whole store."""
        self.network.delivered += 1
        if self.crashed or self.recovering:
            return  # cannot certify state it does not have itself
        (sync_id,) = message.payload
        self.network.send(
            self.node_id, message.sender, "abd.sync-reply", (sync_id, tuple(sorted(self.store.items())))
        )

    def on_transfer(self, message: Message) -> None:
        """Apply a membership state transfer and ack it.

        The payload is the merged old-config state, applied
        monotonically (timestamps arbitrate, so a write this replica
        overheard during the window never regresses).  The grant
        carries a majority-of-old-config's worth of state -- the same
        guarantee a resync provides -- so an amnesiac joiner may start
        serving reads after applying it.
        """
        self.network.delivered += 1
        if self.crashed:
            return
        transfer_id, entries = message.payload
        _merge_newer(self.store, entries)
        self.recovering = False
        self.network.send(self.node_id, message.sender, "abd.transfer-ack", (transfer_id,))


class _PendingOp:
    """One in-flight quorum operation of one client process."""

    __slots__ = (
        "op_id",
        "pid",
        "register",
        "kind",
        "phase",
        "ts",
        "value",
        "amount",
        "replies",
        "best_ts",
        "best_value",
        "callback",
        "retry_key",
        "attempts",
        "started_at",
    )

    def __init__(
        self,
        op_id: int,
        pid: int,
        register: Any,
        kind: str,
        callback: Callable[[Any], None],
        started_at: float,
    ) -> None:
        self.op_id = op_id
        self.pid = pid
        self.register = register
        self.kind = kind  # "read" | "write" | "mwmr-write" | "fetch-add"
        self.phase = ""  # "query" | "write"
        self.ts: Tuple[int, int] = INITIAL_TS
        self.value: Any = None
        self.amount = 0
        self.replies: Set[int] = set()
        self.best_ts: Tuple[int, int] = INITIAL_TS
        self.best_value: Any = None
        self.callback = callback
        #: ``(time, seq)`` heap key of the next retransmission while armed.
        self.retry_key: Optional[Tuple[float, int]] = None
        self.attempts = 0  # retransmission rounds fired (backoff exponent)
        self.started_at = started_at


def _op_record(
    op: _PendingOp, kind: str, ts: Tuple[int, int], value: Any, resp: float
) -> OpRecord:
    """``op``'s interval record of one ``kind`` answered at ``resp``."""
    return OpRecord(
        op_id=op.op_id,
        kind=kind,
        pid=op.pid,
        register=op.register.name,
        ts=ts,
        value=value,
        inv=op.started_at,
        resp=resp,
    )


class _SyncRound:
    """One in-flight retransmitted max-timestamp state-sync round.

    The same three steps serve both users: **collect** ``abd.sync``
    snapshots from a quorum, **merge** them max-timestamp per register,
    **deliver** the merged state.  What differs is only where the
    round collects and how it delivers:

    * an amnesia *resync* (``node`` is the recovering replica) collects
      from the serving set minus the node itself and delivers straight
      into the node's own store;
    * a membership *state transfer* (``node`` is ``None``) collects
      from the old config and delivers by pushing ``abd.transfer`` to
      the new config's members (``pushing``), completing -- and
      installing the new config -- on a majority of their acks.

    It retransmits as a quorum op does: an armed item of its wire
    address's :class:`_RetryClient`.
    """

    __slots__ = (
        "round_id",
        "pid",
        "node",
        "exclude",
        "pushing",
        "replies",
        "merged",
        "retry_key",
        "attempts",
    )

    def __init__(self, round_id: int, pid: int, node: Optional[ReplicaNode]) -> None:
        self.round_id = round_id
        self.pid = pid  # wire address the round's messages come from
        self.node = node
        self.exclude = -1 if node is None else node.index  # never its own quorum
        self.pushing = False
        self.replies: Set[int] = set()  # snapshots in; acks once pushing
        self.merged: Dict[str, _Stamped] = {}
        #: ``(time, seq)`` heap key of the next retransmission while armed.
        self.retry_key: Optional[Tuple[float, int]] = None
        self.attempts = 0


#: What a wire address retransmits: a client's quorum operation or a
#: replica address's state-sync round.
_Retried = Union[_PendingOp, _SyncRound]

#: The armed item a wire address retransmits first: the earliest retry key.
_retry_key_of = attrgetter("retry_key")


class _RetryClient:
    """One wire address's retransmission timers: its armed items and
    its one queued wake entry on the ``abd-retry`` lane.

    The address is a client process, whose items are its quorum ops, or
    a replica address running state-sync rounds.  The wake is filed at
    the earliest armed item's key or before it; see
    :meth:`EmulatedMemory._arm_retry`.  A client process blocks on its
    operation, so it arms one op at most in a run (direct callers of
    the operation API may arm several); a resync and a transfer round
    can share a replica address, which then arms both.
    """

    __slots__ = ("pid", "armed", "wake", "token")

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.armed: List[_Retried] = []
        #: Heap key of the queued wake entry, ``None`` when none is queued.
        self.wake: Optional[Tuple[float, int]] = None
        self.token = 0  # the queued wake's lane token


class EmulatedMemory(SharedMemory):
    """1WMR regular registers emulated by an ABD replica quorum.

    Drop-in :class:`SharedMemory` subclass: the namespace, access logs,
    censuses and snapshots are inherited.  The local register objects
    act as the *completed-state mirror* -- a register's local value is
    updated at the instant its write's quorum completes, so uncounted
    observer reads (``peek``, leader sampling, snapshots) and the write
    log see exactly the completed prefix of the emulated history.

    The asynchronous operation API (:meth:`emu_read`,
    :meth:`emu_write`, :meth:`emu_fetch_add`) is driven by
    :class:`~repro.core.runner.ProcessRuntime`, which blocks the issuing
    process until the completion callback fires.  :meth:`start` must
    run once at execution start (after scenario scrambling) to seed the
    replicas and schedule their crashes; ``Run.execute`` does this.

    Parameters
    ----------
    clock / log_reads:
        As for :class:`SharedMemory`.
    sim:
        The run's simulator; all protocol messages ride its event queue,
        and its clock stamps every operation's interval (invocation,
        response, latency), so ``clock`` must read the same time.
    rng:
        The run's RNG registry; link models draw per-link streams from
        it (the ``sync`` model draws nothing, keeping emulated runs
        stream-identical to shared-memory runs of the same seed).
    config:
        The :class:`EmulationConfig` knobs.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        sim: Simulator,
        rng: RngRegistry,
        config: Optional[EmulationConfig] = None,
        log_reads: bool = True,
    ) -> None:
        super().__init__(clock, log_reads=log_reads)
        self.config = config or EmulationConfig()
        self._sim = sim
        self._rng = rng
        self.network = Network(
            sim, LINK_MODELS[self.config.links](rng, dict(self.config.link_params))
        )
        # Clients (any pid) take the default table; each replica's
        # address gets its own as the node is made (_add_replica).
        self.network.install_routes(
            {"abd.read-reply": self._on_read_reply, "abd.write-ack": self._on_write_ack}
        )
        self.replicas: List[ReplicaNode] = []
        self._initial: Dict[str, Tuple[Tuple[int, int], Any]] = {}
        self._write_counters: Dict[str, int] = {}
        self._ops: Dict[int, _PendingOp] = {}
        self._op_counter = 0
        self._sync_counter = 0
        self._rounds: Dict[int, _SyncRound] = {}
        # Op phases and sync rounds retransmit through one wake entry
        # per wire address on the abd-retry lane, filed straight onto
        # the heap (_arm_retry).
        self._clients: Dict[int, _RetryClient] = {}
        self._wake_lane: Optional[EventLane] = EventLane("abd-retry", self._wake)
        self._push = sim.push
        self._seq = sim.next_seq
        self._started = False
        # Membership state: the installed config, the proposed config of
        # an open transition window (None outside windows) and the queue
        # of events waiting for the current transition to install.
        # ``_rule`` / ``_serving`` are what every quorum phase consults:
        # the quorum rule in force and the replica indices phases
        # broadcast to (see _refresh_quorum_state).
        self.current_config = ReplicaConfig(0, tuple(range(self.config.replicas)))
        self.next_config: Optional[ReplicaConfig] = None
        self._pending_membership: List[MembershipEvent] = []
        self._refresh_quorum_state()
        # Protocol statistics (per-run observability; see RunSummary).
        self.reads_completed = 0
        self.writes_completed = 0
        self.retransmissions = 0
        #: Transient replica recoveries applied from the fault plan.
        self.recoveries = 0
        #: Quorum state-resyncs completed by recovering replicas.
        self.resyncs = 0
        self.total_op_latency = 0.0
        #: Latency accumulated by read operations alone -- at the atomic
        #: consistency level this includes the write-back phase, which
        #: is exactly what the ``EMU_atomic`` bench prices.
        self.read_op_latency = 0.0
        #: Write-back phases run by atomic reads (0 at the regular level).
        self.write_backs = 0
        #: Write-acks whose echoed value disagreed with the value the
        #: write phase sent: on-the-wire value corruption caught by the
        #: quorum-certificate cross-check (one count per replica per
        #: phase; 0 on loss-free and corruption-free fabrics).
        self.integrity_violations = 0
        #: Reconfigurations installed (one per membership event whose
        #: transition window closed before the horizon).
        self.configs_installed = 0
        #: Operations completed while a dual-quorum transition window
        #: was open -- the ops that paid the two-config intersection
        #: discipline (0 in the broken ``single-config`` mode).
        self.dual_quorum_ops = 0
        #: Membership state-transfer rounds completed (collect + push).
        self.transfer_rounds = 0
        #: Completed-operation interval records (empty unless
        #: ``config.record_history``); see :meth:`recorded_history`.
        self.op_history: List[OpRecord] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, horizon: float) -> None:
        """Seed the replicas and schedule their crashes (run once).

        Called by ``Run.execute`` after layout creation and scenario
        scrambling, so replicas start from the registers' *actual*
        initial values (footnote 7's arbitrary-initial-value scenarios
        included).
        """
        if self._started:
            raise RuntimeError("emulation already started")
        self._started = True
        for reg in self.all_registers():
            self._initial[reg.name] = (INITIAL_TS, reg.peek())
        for _ in range(self.config.replicas):
            self._add_replica(amnesiac=False)
        for idx, t in self.config.replica_crash_times:
            if t <= horizon:
                self._sim.schedule_at(t, self._replica_event, "replica-crash", None, ("replica-crash", idx))
        for ev in MembershipPlan(self.config.membership_plan):
            if ev.at <= horizon:
                self._sim.schedule_at(ev.at, self._on_membership_event, "membership-event", None, ev)
        self._apply_fault_plan(horizon)

    def _apply_fault_plan(self, horizon: float) -> None:
        """Arm the config's fault plan: replica events are scheduled;
        partition and storm windows compile into a
        :class:`~repro.netsim.network.PartitionScheduleLinks` overlay
        wrapping the configured link behaviour."""
        plan = FaultPlan(self.config.fault_plan)
        if not plan.events:
            return
        for ev in plan:
            if ev.at <= horizon and ev.kind in ("replica-crash", "replica-recover"):
                self._sim.schedule_at(ev.at, self._replica_event, ev.kind, None, (ev.kind, ev.replica))
        partitions = plan.partition_windows(horizon)
        storms = plan.storm_windows(horizon)
        if partitions or storms:
            self.network.behavior = PartitionScheduleLinks(
                self.network.behavior, partitions=partitions, storms=storms
            )

    def _replica_event(self, event: Tuple[str, int]) -> None:
        """Fire one scheduled ``(kind, replica index)`` crash or recovery.

        The node is resolved now: a joiner's crash is scheduled before
        the join makes its node (config validation guarantees the join
        comes first).
        """
        kind, index = event
        if index < len(self.replicas):
            node = self.replicas[index]
            if kind == "replica-crash":
                self._crash_replica(node)
            else:
                self._begin_recovery(node)

    def _add_replica(self, amnesiac: bool) -> None:
        """Make the next replica node and route its address's traffic:
        the requests it serves to its own handlers, and the state-sync
        replies addressed to it -- a round's wire origin -- to the
        round's state machine here."""
        node = ReplicaNode(len(self.replicas), self.network, self._initial, amnesiac)
        self.replicas.append(node)
        routes = {"abd.read": node.on_read, "abd.write": node.on_write, "abd.sync": node.on_sync}
        routes["abd.transfer"] = node.on_transfer
        routes["abd.sync-reply"] = self._on_sync_reply
        routes["abd.transfer-ack"] = self._on_transfer_ack
        self.network.install_routes(routes, node.node_id)

    def release(self) -> None:
        """End of run: break the emulation's own reference cycles.

        The network's routes, the wake lane's consumer and the
        completion callback of every op still in flight all lead back
        to this object.  ``Run.execute`` calls this after the
        simulator released its queue; the emulation runs no more, but
        every post-run query (the logs, the counters, the ops in flight
        that :meth:`recorded_history` reports with ``resp = inf``)
        still reads the state it left.  Every wire address's wake state
        -- its armed ops and rounds -- goes with the wake lane.
        """
        self.network.install_routes({})
        self._wake_lane = None
        self._clients = {}
        for op in self._ops.values():
            op.callback = None

    # ------------------------------------------------------------------
    # Crash, recovery and the state-sync round
    # ------------------------------------------------------------------
    def _crash_replica(self, node: ReplicaNode) -> None:
        """Crash ``node`` now, abandoning any resync it was running."""
        node.crashed = True
        node.recovering = False
        for rnd in list(self._rounds.values()):
            if rnd.node is node:
                self._close_round(rnd)

    def _begin_recovery(self, node: ReplicaNode) -> None:
        """Recover ``node`` with amnesia; resync before serving reads.

        The crash wiped the replica's volatile store, so it restarts
        from *nothing* (not even the seeded initial values -- stale
        initial state is exactly the bug the resync exists to prevent).
        It applies and acks writes but refuses reads until its
        state-sync round delivers a quorum's merged snapshots.
        """
        if not node.crashed:
            return  # recover of a live replica is a no-op
        node.crashed = False
        node.store.clear()
        self.recoveries += 1
        node.recovering = True
        self._open_round(node, node.node_id)

    def _open_round(self, node: Optional[ReplicaNode], pid: int) -> None:
        """Open a state-sync round from wire address ``pid`` and arm its
        retransmission: the resync of a recovering ``node``, or --
        ``node`` is ``None`` -- the state transfer that closes the open
        transition window."""
        self._sync_counter += 1
        rnd = _SyncRound(self._sync_counter, pid, node)
        self._rounds[rnd.round_id] = rnd
        if pid not in self._clients:
            self._clients[pid] = _RetryClient(pid)
        self._broadcast_round(rnd)
        self._arm_retry(rnd)

    def _close_round(self, rnd: _SyncRound) -> None:
        """Retire a completed or abandoned round: disarm it, as
        :meth:`_finish` disarms an op (its wire address's wake declines
        or follows the next armed item), and drop its table entry."""
        self._clients[rnd.pid].armed.remove(rnd)
        del self._rounds[rnd.round_id]

    def _broadcast_round(self, rnd: _SyncRound) -> None:
        """(Re-)send the round's current step to the targets yet to answer.

        A resync collects from the *serving* set -- the installed
        config, or the union of both configs during a transition window
        -- minus the recovering node, so a resync racing a
        reconfiguration certifies against the same replicas quorum
        operations run against.  A transfer collects from the old
        config, then pushes the merged state to the new one.
        """
        if rnd.pushing:
            targets = self.next_config.members if self.next_config is not None else ()
            kind, payload = "abd.transfer", (rnd.round_id, tuple(sorted(rnd.merged.items())))
        else:
            targets = self.current_config.members if rnd.node is None else self._serving
            kind, payload = "abd.sync", (rnd.round_id,)
        targets = [-(idx + 1) for idx in targets if idx != rnd.exclude and idx not in rnd.replies]
        self.network.multicast(rnd.pid, targets, kind, payload)

    def _on_sync_reply(self, message: Message) -> None:
        """Merge one snapshot; deliver once the round's quorum replied."""
        self.network.delivered += 1
        round_id, entries = message.payload
        rnd = self._rounds.get(round_id)
        replica_index = -message.sender - 1
        if rnd is None or rnd.pushing or replica_index in rnd.replies:
            return  # late, duplicate, or of an abandoned/completed round
        rnd.replies.add(replica_index)
        _merge_newer(rnd.merged, entries)
        node = rnd.node
        if node is None:
            # A majority of the OLD config intersects every completed
            # write's quorum (pre-window writes by old-majority quorums,
            # window writes because dual quorums contain an old
            # majority), so the merge holds the freshest completed
            # state: push it to the new config.
            if quorum_met(quorum_rule(self.current_config), rnd.replies):
                rnd.pushing = True
                rnd.replies = set()
                self._broadcast_round(rnd)
        elif quorum_met(self._rule, rnd.replies, rnd.exclude):
            # A majority drawn from the OTHER replicas (the recovering
            # node's own state is amnesia, so counting itself would be
            # unsound): |replies| + |any completed write's quorum|
            # exceeds the member count, so the merge sees every
            # completed write through at least one non-amnesiac holder
            # -- in the current config and, mid-transition, in the new
            # one too, whichever its future readers may quorum with.
            self._close_round(rnd)
            # Deliver without regressing writes the node already applied
            # while recovering (the timestamps arbitrate, as everywhere).
            _merge_newer(node.store, rnd.merged.items())
            node.recovering = False
            self.resyncs += 1

    def _on_transfer_ack(self, message: Message) -> None:
        """Count one push ack; install on a majority of the new config."""
        self.network.delivered += 1
        rnd = self._rounds.get(message.payload[0])
        if rnd is None or not rnd.pushing or self.next_config is None:
            return
        rnd.replies.add(-message.sender - 1)
        if quorum_met(quorum_rule(self.next_config), rnd.replies):
            self._close_round(rnd)
            self.transfer_rounds += 1
            self._install_config()

    # ------------------------------------------------------------------
    # Dynamic membership: transitions, the rule in force, installs
    # ------------------------------------------------------------------
    def _on_membership_event(self, event: MembershipEvent) -> None:
        """Queue one operator join/leave; transitions run one at a time."""
        self._pending_membership.append(event)
        self._maybe_begin_transition()

    def _maybe_begin_transition(self) -> None:
        """Open the next transition window, if none is in flight.

        A join creates the new replica node *now*, as an amnesiac (it
        applies and acks window writes -- timestamps make that safe --
        but refuses reads until the state transfer lands); a leave only
        shrinks the proposed member set, the node itself stays up so
        late window quorums can still count it.  The state transfer is
        scheduled ``transfer_delay`` later, which is how long the
        dual-quorum window stays open.
        """
        if self.next_config is not None or not self._pending_membership:
            return
        event = self._pending_membership.pop(0)
        members = set(self.current_config.members)
        if event.kind == "join":
            while len(self.replicas) <= event.replica:
                self._add_replica(amnesiac=True)
            members.add(event.replica)
        else:
            members.discard(event.replica)
        self.next_config = ReplicaConfig(
            self.current_config.config_id + 1, tuple(sorted(members))
        )
        self._refresh_quorum_state()
        # Only this timer closes the window, so the config it finds
        # proposed when it fires is the one proposed here.
        self._sim.schedule_after(
            self.config.transfer_delay, self._begin_transfer, kind="membership-transfer"
        )

    def _refresh_quorum_state(self) -> None:
        """Recompute the quorum rule in force and the broadcast targets.

        The rule is *a majority of every config in force*: the
        installed config alone, or -- inside a transition window -- the
        old **and** the proposed config, so any quorum drawn from
        either adjacent config intersects a window quorum (reads see
        every completed write, writes survive the install).  Phases
        broadcast to the union of the rule's member sets: reads take
        the max timestamp across both configs, writes ack in both.  The
        broken ``single-config`` mode never puts the proposed config in
        force -- the writer pretends the new config does not exist yet,
        which is exactly the bug the negative control pins.
        """
        configs = [self.current_config]
        if self.next_config is not None and self.config.transition != "single-config":
            configs.append(self.next_config)
        self._rule: QuorumRule = quorum_rule(*configs)
        self._serving: Tuple[int, ...] = tuple(
            sorted(frozenset().union(*(members for members, _ in self._rule)))
        )

    def _begin_transfer(self) -> None:
        """Close the window: state-transfer round, then install."""
        nxt = self.next_config
        if nxt is None:
            return
        if self.config.transition == "single-config":
            # BROKEN negative control: install without a state transfer.
            # Joiners start serving reads out of whatever they happened
            # to overhear -- for any register not rewritten since the
            # join that is the seeded initial value, which the history
            # audit must flag the moment a quorum is all-joiners.
            for idx in nxt.members:
                self.replicas[idx].recovering = False
            self._install_config()
            return
        # The round's state machine lives in this object; the new
        # config's lowest member is merely the wire address its replies
        # route to.
        self._open_round(None, -(min(nxt.members) + 1))

    def _install_config(self) -> None:
        """Install the proposed config and garbage-collect the old one.

        From this instant quorums are drawn from the new config alone;
        members of the old config that left stop being broadcast to.
        Any queued membership event opens its window immediately.
        """
        if self.next_config is None:
            return
        self.current_config = self.next_config
        self.next_config = None
        self.configs_installed += 1
        self._refresh_quorum_state()
        self._maybe_begin_transition()

    # ------------------------------------------------------------------
    # Operation-history recorder
    # ------------------------------------------------------------------
    def _record(self, op: _PendingOp, kind: str, ts: Tuple[int, int], value: Any) -> None:
        """Append one completed-operation interval record (callers check
        ``config.record_history`` first)."""
        self.op_history.append(_op_record(op, kind, ts, value, self._sim._now))

    def recorded_history(self) -> List[OpRecord]:
        """The auditable interval history of this run.

        Completed operations in completion order, plus every write
        still in its write phase when the run ended (reported with
        ``resp = math.inf``): a concurrent read may legitimately have
        returned such a write's timestamp, so the checkers must see the
        write exist.  Reads and query-phase writes that never completed
        returned nothing and are omitted.  Empty unless the config set
        ``record_history``.
        """
        records = list(self.op_history)
        if self.config.record_history:
            for op in self._ops.values():
                if op.kind != "read" and op.phase == "write":
                    records.append(_op_record(op, "write", op.ts, op.value, math.inf))
        return records

    # ------------------------------------------------------------------
    # Asynchronous operation API (driven by the process runtime)
    # ------------------------------------------------------------------
    def emu_read(self, pid: int, register: Any, callback: Callable[[Any], None]) -> None:
        """Start a quorum read; ``callback(value)`` fires at completion."""
        op = self._new_op(pid, register, "read", callback)
        self._enter_query(op)

    def emu_write(
        self, pid: int, register: Any, value: Any, callback: Callable[[Any], None]
    ) -> None:
        """Start a quorum write; ``callback(None)`` fires at completion.

        Ownership is checked *synchronously* at invocation (exactly like
        the shared backend), so an illegal write raises
        :class:`~repro.memory.register.OwnershipError` in the issuing
        process's step rather than completing remotely.
        """
        owner = getattr(register, "owner", None)
        if isinstance(register, AtomicRegister) and owner is not None and pid != owner:
            raise OwnershipError(
                f"process {pid} attempted to write {register.name} owned by {owner}"
            )
        if isinstance(register, MultiWriterRegister):
            op = self._new_op(pid, register, "mwmr-write", callback)
            op.value = value
            self._enter_query(op)  # learn the current max timestamp first
        else:
            op = self._new_op(pid, register, "write", callback)
            op.value = value
            counter = self._write_counters.get(register.name, 0) + 1
            self._write_counters[register.name] = counter
            self._enter_write(op, (counter, pid))

    def emu_fetch_add(
        self, pid: int, register: MultiWriterRegister, amount: int, callback: Callable[[Any], None]
    ) -> None:
        """Start an emulated fetch&add; ``callback(old_value)`` at completion.

        ABD registers offer only read and write, so fetch&add degrades
        to the racy two-step emulation (query the value, write value +
        amount): concurrent increments may be lost.  The Section 3.5
        variant is documented to tolerate exactly this.
        """
        op = self._new_op(pid, register, "fetch-add", callback)
        op.amount = amount
        self._enter_query(op)

    # ------------------------------------------------------------------
    # Protocol phases
    # ------------------------------------------------------------------
    def _new_op(
        self, pid: int, register: Any, kind: str, callback: Callable[[Any], None]
    ) -> _PendingOp:
        if not self._started:
            # Without replicas the phase would broadcast to nobody and
            # the operation would hang forever; fail loudly instead.
            raise RuntimeError(
                "emulation not started: call start() before issuing operations "
                "(Run.execute does this)"
            )
        self._op_counter += 1
        op = _PendingOp(self._op_counter, pid, register, kind, callback, self._sim._now)
        self._ops[op.op_id] = op
        if pid not in self._clients:
            self._clients[pid] = _RetryClient(pid)
        return op

    def _enter_query(self, op: _PendingOp) -> None:
        op.phase = "query"
        op.replies = set()
        op.best_ts, op.best_value = self._initial.get(op.register.name, _UNSEEDED)
        self._broadcast_phase(op)
        self._arm_retry(op)

    def _enter_write(self, op: _PendingOp, ts: Tuple[int, int]) -> None:
        op.phase = "write"
        op.ts = ts
        op.replies = set()
        self._broadcast_phase(op)
        if op.retry_key is None:  # direct writes skip the query phase
            self._arm_retry(op)

    def _broadcast_phase(self, op: _PendingOp) -> None:
        """(Re-)send the current phase's message to unacked replicas.

        The target set is the membership *serving* set: the installed
        config's members, or the union of both configs during a
        dual-quorum transition window (so reads can take the max
        timestamp across both and writes can ack in both).  Retries
        re-evaluate it, so an operation in flight across an install
        follows the config change.
        """
        name = op.register.name
        if op.phase == "query":
            kind, payload = "abd.read", (op.op_id, name)
        else:
            kind, payload = "abd.write", (op.op_id, name, op.ts, op.value)
        targets = [-(idx + 1) for idx in self._serving if idx not in op.replies]
        self.network.multicast(op.pid, targets, kind, payload)

    def _retry_delay(self, item: _Retried) -> float:
        """Delay before ``item``'s next retransmission round.

        ``fixed`` returns the constant interval and draws **no**
        randomness, so default-config runs stay byte-identical to
        pre-backoff releases; ``backoff`` doubles per round up to
        ``retry_cap`` and scales by seeded per-client jitter.  Backoff
        is a *client* congestion knob: state-sync rounds pace at the
        constant interval under either policy.
        """
        config = self.config
        if config.retry_policy == "fixed" or isinstance(item, _SyncRound):
            return config.retry_interval
        # interval * 2**k is exact, so from k = the binary exponent of
        # cap/interval on the product is >= cap and min() returns the
        # cap for good: clamping k there changes no delay, and keeps
        # 2.0 ** k finite for an op stalled past its 1023rd round.
        doublings = min(item.attempts, math.frexp(config.retry_cap / config.retry_interval)[1])
        delay = min(config.retry_interval * (2.0 ** doublings), config.retry_cap)
        if config.retry_jitter:
            stream = self._rng.stream(f"abd-retry:{item.pid}")
            delay *= 1.0 + config.retry_jitter * stream.random()
        return delay

    def _arm_retry(self, item: _Retried) -> None:
        """Arm ``item``'s next retransmission -- an op at its first
        phase, a round when it opens, either after each retransmission.

        The item reserves its heap key ``(now + delay, seq)`` here: the
        :meth:`_retry_delay` draw and one ``seq`` from the kernel's
        counter, exactly the key a per-item timer entry would get, so
        every other entry keeps its ``seq``.  The wake entry of the
        item's wire address (:meth:`_wake`) carries the retransmission
        to that key; a new one is filed only when the address has none
        queued at or before it (a queued later one is cancelled), so
        arming an item while an earlier wake is queued pushes nothing.
        A finished item needs no cancellation: :meth:`_finish` and
        :meth:`_close_round` only disarm it, and the next wake follows
        the item armed after it or declines.
        """
        key = item.retry_key = (self._sim._now + self._retry_delay(item), self._seq())
        client = self._clients[item.pid]
        client.armed.append(item)
        wake = client.wake
        if wake is None or key < wake:
            if wake is not None:
                self._wake_lane.cancel(client.token)
            self._file_wake(client, key)

    def _file_wake(self, client: _RetryClient, key: Tuple[float, int]) -> None:
        """Queue ``client``'s wake entry under the reserved ``key``."""
        lane = self._wake_lane
        client.wake = key
        client.token = token = lane.acquire(client)
        self._push((key[0], key[1], lane.kind_id, client.pid, lane, token))

    def _wake(self, client: _RetryClient) -> bool:
        """A wire address's wake entry came up (the abd-retry lane's
        consumer).

        The entry's key is the armed item's key: that item retransmits,
        as it would have from its own timer -- a round re-sends its
        current step, an op its current phase -- and re-arms.  The
        earliest armed item is due later (the item the wake was filed
        for finished): the wake re-files itself at that item's key and
        declines.  Nothing is armed: it declines.  A declined wake
        counts as a skipped event, not a fired one.
        """
        key, client.wake = client.wake, None
        armed = client.armed
        if not armed:
            return False
        item = min(armed, key=_retry_key_of)
        if item.retry_key != key:
            self._file_wake(client, item.retry_key)
            return False
        armed.remove(item)
        if armed:  # the wake follows the earliest of the others meanwhile
            self._file_wake(client, min(armed, key=_retry_key_of).retry_key)
        self.retransmissions += 1
        item.attempts += 1
        if isinstance(item, _SyncRound):
            self._broadcast_round(item)
        else:
            self._broadcast_phase(item)
        self._arm_retry(item)
        return True

    def _finish(self, op: _PendingOp, result: Any) -> None:
        """Complete ``op``: disarm its retransmission (no entry is
        touched; the client's wake declines or follows the next op),
        retire it and hand ``result`` to its caller."""
        self._clients[op.pid].armed.remove(op)
        del self._ops[op.op_id]
        if len(self._rule) > 1:  # completed inside a dual-quorum window
            self.dual_quorum_ops += 1
        self.total_op_latency += self._sim._now - op.started_at
        op.callback(result)

    # ------------------------------------------------------------------
    # Client-side message handling (one route per reply kind)
    # ------------------------------------------------------------------
    def _on_read_reply(self, message: Message) -> None:
        """Count one query reply; act once the phase's quorum replied."""
        self.network.delivered += 1
        op_id, _, ts, value = message.payload
        op = self._ops.get(op_id)
        if op is None or op.phase != "query":
            return  # late reply: the op completed or left its query phase
        replica_index = -message.sender - 1
        if replica_index in op.replies:
            return
        op.replies.add(replica_index)
        if ts > op.best_ts:
            op.best_ts, op.best_value = ts, value
        if not quorum_met(self._rule, op.replies):
            return
        if op.kind == "read":
            if self.config.consistency == "atomic":
                # ABD write-back: propagate the (timestamp, value) this
                # read is about to return to a majority first, so no
                # later read can see an older value (atomicity).
                self.write_backs += 1
                op.value = op.best_value
                self._enter_write(op, op.best_ts)
            else:
                self._complete_read(op)
        elif op.kind == "mwmr-write":
            self._enter_write(op, (op.best_ts[0] + 1, op.pid))
        else:  # fetch-add: write value + amount, return the old value
            op.value = op.best_value + op.amount
            self._enter_write(op, (op.best_ts[0] + 1, op.pid))

    def _on_write_ack(self, message: Message) -> None:
        """Count one write ack; complete once the phase's quorum acked."""
        self.network.delivered += 1
        op_id, _, ts, value = message.payload
        op = self._ops.get(op_id)
        if op is None or op.phase != "write" or ts != op.ts:
            return  # late ack: the op completed, or of an earlier phase
        replica_index = -message.sender - 1
        if replica_index not in op.replies and value != op.value:
            # The replica echoed back a value other than the one this
            # write phase is propagating: the payload was corrupted on
            # the wire (in either direction).  Detection only -- the ack
            # still counts toward the quorum, mirroring how the paper's
            # protocol has no integrity defence; the counter and the
            # history audit make the corruption visible.
            self.integrity_violations += 1
        op.replies.add(replica_index)
        if not quorum_met(self._rule, op.replies):
            return
        if op.kind == "read":  # an atomic read's write-back completed
            self._complete_read(op)
        else:
            self._complete_write(op)

    # ------------------------------------------------------------------
    # Completions (the linearization points of the emulated history)
    # ------------------------------------------------------------------
    def _complete_read(self, op: _PendingOp) -> None:
        op.register.read(op.pid)  # accounting only; the value is the quorum's
        self.reads_completed += 1
        self.read_op_latency += self._sim._now - op.started_at
        if self.config.record_history:
            self._record(op, "read", op.best_ts, op.best_value)
        self._finish(op, op.best_value)

    def _complete_write(self, op: _PendingOp) -> None:
        fetch_add = op.kind == "fetch-add"
        self.writes_completed += 1
        recording = self.config.record_history
        if fetch_add:  # one counted read + one counted write, like the shared fetch&add
            op.register.read(op.pid)
            if recording:
                self._record(op, "read", op.best_ts, op.best_value)
        op.register.write(op.pid, op.value)  # mirror + accounting + owner check
        if recording:
            self._record(op, "write", op.ts, op.value)
        self._finish(op, op.value - op.amount if fetch_add else None)


__all__ = [
    "CONSISTENCY_LEVELS",
    "EmulatedMemory",
    "EmulationConfig",
    "LINK_MODELS",
    "MembershipEvent",
    "MembershipPlan",
    "RETRY_POLICIES",
    "ReplicaConfig",
    "ReplicaNode",
    "TRANSITION_MODES",
]
