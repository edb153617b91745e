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
logs, the window queries and the no-log read fast path are all
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
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple

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


def _make_links(name: str, rng: RngRegistry, params: Mapping[str, Any]) -> ChannelBehavior:
    """Instantiate a link model by registry name with keyword ``params``."""
    try:
        factory = LINK_MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown emulation link model {name!r}; choose from {sorted(LINK_MODELS)}"
        ) from None
    return factory(rng, dict(params))


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
        if not self.membership_plan:
            if len(crashes) > (self.replicas - 1) // 2:
                raise ValueError(
                    f"crashing {len(crashes)} of {self.replicas} replicas leaves no "
                    "majority; the emulation tolerates only a minority of crashes"
                )
        else:
            self._validate_crash_liveness(plan, crashes)

    def _validate_crash_liveness(
        self, plan: MembershipPlan, crashes: Dict[int, float]
    ) -> None:
        """Walk membership and crash timelines together: at every step
        the *current* member set must keep a live majority, or quorums
        (and the transitions themselves) become unreachable.  Transient
        fault-plan crashes are exempt, as for the static-membership
        check -- campaigns may probe stalls."""
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
                    "majority; membership plans must keep a quorum alive"
                )

    @property
    def majority(self) -> int:
        """Quorum size: any two majorities intersect."""
        return self.replicas // 2 + 1

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The plain-dict form (scenario kwargs, JSON payloads)."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        for name, (encode, _) in _FIELD_CODECS.items():
            out[name] = encode(out[name])
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EmulationConfig":
        """Build a config from the plain-dict form (inverse of
        :meth:`to_dict`; JSON string keys are re-intified)."""
        defaults = {f.name: f.default for f in fields(cls)}
        unknown = set(payload) - set(defaults)
        if unknown:
            raise ValueError(f"unknown emulation option(s): {sorted(unknown)}")
        kwargs: Dict[str, Any] = {}
        for name, value in payload.items():
            if name in _FIELD_CODECS:
                kwargs[name] = _FIELD_CODECS[name][1](value)
            else:  # a scalar: coerce to its default's type (JSON 5 -> 5.0)
                kwargs[name] = type(defaults[name])(value)
        return cls(**kwargs)


#: ``field -> (encode, decode)`` for the :class:`EmulationConfig` fields
#: whose JSON shape differs from their frozen in-memory shape; every
#: other field is a scalar that serialises as itself.
_FIELD_CODECS: Dict[str, Tuple[Callable[[Any], Any], Callable[[Any], Any]]] = {
    "link_params": (dict, lambda v: tuple(sorted((v or {}).items()))),
    "replica_crash_times": (
        lambda v: {str(i): t for i, t in v},
        lambda v: tuple(sorted((int(i), float(t)) for i, t in dict(v or {}).items())),
    ),
    "fault_plan": (
        lambda v: [ev.to_jsonable() for ev in v],
        lambda v: tuple(FaultEvent.from_jsonable(ev) for ev in v or ()),
    ),
    "membership_plan": (
        lambda v: [ev.to_jsonable() for ev in v],
        lambda v: tuple(MembershipEvent.from_jsonable(ev) for ev in v or ()),
    ),
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


class ReplicaNode:
    """One replica: a ``{register: (timestamp, value)}`` store.

    Replicas are passive state machines -- they never initiate traffic,
    only answer queries and apply timestamped writes (monotonically:
    an older write arriving late never regresses the stored value).
    A crashed replica silently drops everything; a *recovering* replica
    (post-crash amnesia, pre-resync) applies and acks writes -- the
    timestamps make that safe -- but refuses to serve reads or to
    certify another replica's resync until its own quorum state-resync
    completes (the ``abd.sync`` round driven by
    :class:`EmulatedMemory`).
    """

    def __init__(self, index: int, initial: Dict[str, Tuple[Tuple[int, int], Any]]) -> None:
        self.index = index
        #: The replica's address on the emulation network: clients use
        #: their non-negative pid, so replicas live on the negative axis.
        self.node_id = -(index + 1)
        self.store: Dict[str, Tuple[Tuple[int, int], Any]] = dict(initial)
        self.crashed = False
        self.recovering = False
        self.writes_applied = 0
        self.reads_served = 0

    def handle(self, message: Message, network: Network, initial_of: Callable[[str], Tuple[Tuple[int, int], Any]]) -> None:
        """Serve one query or apply one timestamped write, then reply."""
        if self.crashed:
            return
        if message.kind == "abd.read":
            if self.recovering:
                return  # amnesiac state must not enter any read quorum
            op_id, name = message.payload
            ts, value = self.store.get(name) or initial_of(name)
            self.reads_served += 1
            network.send(self.node_id, message.sender, "abd.read-reply", (op_id, name, ts, value))
        elif message.kind == "abd.sync":
            if self.recovering:
                return  # cannot certify state it does not have itself
            (sync_id,) = message.payload
            network.send(
                self.node_id,
                message.sender,
                "abd.sync-reply",
                (sync_id, tuple(sorted(self.store.items()))),
            )
        elif message.kind == "abd.transfer":
            # A membership state transfer: the merged old-config state,
            # applied monotonically (timestamps arbitrate, so a write
            # this replica overheard during the window never regresses).
            # The grant carries a majority-of-old-config's worth of
            # state -- the same guarantee a resync provides -- so an
            # amnesiac joiner may start serving reads after applying it.
            transfer_id, entries = message.payload
            _merge_newer(self.store, entries)
            self.recovering = False
            network.send(self.node_id, message.sender, "abd.transfer-ack", (transfer_id,))
        elif message.kind == "abd.write":
            op_id, name, ts, value = message.payload
            current = self.store.get(name) or initial_of(name)
            if ts > current[0]:
                self.store[name] = (ts, value)
                self.writes_applied += 1
            # The ack echoes the value this replica received: it is the
            # quorum certificate's value entry, letting the writer
            # cross-check that the payload survived the wire (the
            # value-integrity detector; timestamps alone cannot see a
            # corrupted value travelling under a valid timestamp).
            network.send(
                self.node_id, message.sender, "abd.write-ack", (op_id, name, ts, value)
            )


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
        "done",
        "retry_handle",
        "attempts",
        "started_at",
    )
    #: Event kind of the retransmission timer of every client phase.
    retry_kind = "abd-retry"

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
        self.done = False
        self.retry_handle: Optional[int] = None  # lane token of the armed retry
        self.attempts = 0  # retransmission rounds fired (backoff exponent)
        self.started_at = started_at


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
    """

    __slots__ = (
        "round_id",
        "pid",
        "retry_kind",
        "node",
        "exclude",
        "pushing",
        "replies",
        "merged",
        "retry_handle",
        "attempts",
        "done",
    )

    def __init__(
        self, round_id: int, pid: int, node: Optional[ReplicaNode], retry_kind: str
    ) -> None:
        self.round_id = round_id
        self.pid = pid  # wire address the round's messages come from
        self.retry_kind = retry_kind  # event kind of its retransmission timer
        self.node = node
        self.exclude = -1 if node is None else node.index  # never its own quorum
        self.pushing = False
        self.replies: Set[int] = set()  # snapshots in; acks once pushing
        self.merged: Dict[str, _Stamped] = {}
        self.retry_handle: Optional[int] = None
        self.attempts = 0
        self.done = False


class EmulatedMemory(SharedMemory):
    """1WMR regular registers emulated by an ABD replica quorum.

    Drop-in :class:`~repro.memory.backend.MemoryBackend`: the namespace,
    access logs, censuses and snapshots are inherited from
    :class:`SharedMemory`.  The local register objects act as the
    *completed-state mirror* -- a register's local value is updated at
    the instant its write's quorum completes, so uncounted observer
    reads (``peek``, leader sampling, snapshots) and the write log see
    exactly the completed prefix of the emulated history.

    The asynchronous operation API (:meth:`emu_read`,
    :meth:`emu_write`, :meth:`emu_fetch_add`) is driven by
    :class:`~repro.core.runner.ProcessRuntime`, which blocks the issuing
    process until the completion callback fires.  :meth:`start` must
    run once at execution start (after scenario scrambling) to seed the
    replicas and schedule their crashes; ``Run.execute`` does this.

    Parameters
    ----------
    clock / log_reads:
        As for :class:`SharedMemory` (the read fast path is inherited).
    sim:
        The run's simulator; all protocol messages ride its event queue.
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
            sim, _make_links(self.config.links, rng, dict(self.config.link_params))
        )
        self.network.install_delivery(self._on_delivery)
        self.replicas: List[ReplicaNode] = []
        self._initial: Dict[str, Tuple[Tuple[int, int], Any]] = {}
        self._write_counters: Dict[str, int] = {}
        self._ops: Dict[int, _PendingOp] = {}
        self._op_counter = 0
        self._sync_counter = 0
        self._rounds: Dict[int, _SyncRound] = {}
        # One cancellable lane per retransmission-timer kind; every
        # payload is the item's own ``retry`` closure (see _arm_retry).
        self._retry_lanes: Dict[str, EventLane] = {
            kind: EventLane(kind, None)
            for kind in ("abd-retry", "abd-resync-retry", "abd-transfer-retry")
        }
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
        self.replicas = [
            ReplicaNode(i, self._initial) for i in range(self.config.replicas)
        ]
        for idx, t in self.config.replica_crash_times:
            if t <= horizon:
                if idx < len(self.replicas):
                    replica = self.replicas[idx]

                    def crash(node: ReplicaNode = replica) -> None:
                        self._crash_replica(node)

                    self._sim.schedule_at(t, crash, kind="replica-crash")
                else:
                    # A joiner's crash: the node does not exist yet, so
                    # resolve the index at fire time (config validation
                    # guarantees the join precedes the crash).
                    def crash_joiner(i: int = idx) -> None:
                        if i < len(self.replicas):
                            self._crash_replica(self.replicas[i])

                    self._sim.schedule_at(t, crash_joiner, kind="replica-crash")
        for ev in MembershipPlan(self.config.membership_plan):
            if ev.at > horizon:
                continue

            def fire(event: MembershipEvent = ev) -> None:
                self._on_membership_event(event)

            self._sim.schedule_at(ev.at, fire, kind="membership-event")
        self._apply_fault_plan(horizon)

    def _apply_fault_plan(self, horizon: float) -> None:
        """Arm the config's fault plan: replica events become scheduled
        closures; partition and storm windows compile into a
        :class:`~repro.netsim.network.PartitionScheduleLinks` overlay
        wrapping the configured link behaviour."""
        plan = FaultPlan(self.config.fault_plan)
        if not plan.events:
            return
        for ev in plan:
            if ev.at > horizon:
                continue
            if ev.kind == "replica-crash":
                replica = self.replicas[ev.replica]

                def crash(node: ReplicaNode = replica) -> None:
                    self._crash_replica(node)

                self._sim.schedule_at(ev.at, crash, kind="replica-crash")
            elif ev.kind == "replica-recover":
                replica = self.replicas[ev.replica]

                def recover(node: ReplicaNode = replica) -> None:
                    self._begin_recovery(node)

                self._sim.schedule_at(ev.at, recover, kind="replica-recover")
        partitions = plan.partition_windows(horizon)
        storms = plan.storm_windows(horizon)
        if partitions or storms:
            self.network.behavior = PartitionScheduleLinks(
                self.network.behavior, partitions=partitions, storms=storms
            )

    def _initial_of(self, name: str) -> Tuple[Tuple[int, int], Any]:
        """A register's seeded replica state (for post-start lookups)."""
        return self._initial.get(name, (INITIAL_TS, 0))

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
        self._open_round(node, node.node_id, "abd-resync-retry")

    def _open_round(self, node: Optional[ReplicaNode], pid: int, retry_kind: str) -> None:
        """Open a state-sync round (with retransmission): the resync of
        a recovering ``node``, or -- ``node`` is ``None`` -- the state
        transfer that closes the open transition window."""
        self._sync_counter += 1
        rnd = _SyncRound(self._sync_counter, pid, node, retry_kind)
        self._rounds[rnd.round_id] = rnd
        self._broadcast_round(rnd)
        self._arm_retry(rnd)

    def _close_round(self, rnd: _SyncRound) -> None:
        """Retire a completed or abandoned round: no timer, no table entry."""
        rnd.done = True
        if rnd.retry_handle is not None:
            self._retry_lanes[rnd.retry_kind].cancel(rnd.retry_handle)
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
        rnd = self._rounds.get(message.payload[0])
        if rnd is None or not rnd.pushing or self.next_config is None:
            return
        rnd.replies.add(-message.sender - 1)
        if quorum_met(quorum_rule(self.next_config), rnd.replies):
            self._close_round(rnd)
            self.transfer_rounds += 1
            self._install_config()

    @property
    def live_replicas(self) -> int:
        """Replicas that have not crashed yet."""
        return sum(1 for r in self.replicas if not r.crashed)

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
                node = ReplicaNode(len(self.replicas), {})
                node.recovering = True
                self.replicas.append(node)
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
        self._open_round(None, -(min(nxt.members) + 1), "abd-transfer-retry")

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
        """Append one completed-operation interval record (if recording)."""
        if self.config.record_history:
            self.op_history.append(
                OpRecord(
                    op_id=op.op_id,
                    kind=kind,
                    pid=op.pid,
                    register=op.register.name,
                    ts=ts,
                    value=value,
                    inv=op.started_at,
                    resp=self._clock(),
                )
            )

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
                    records.append(
                        OpRecord(
                            op_id=op.op_id,
                            kind="write",
                            pid=op.pid,
                            register=op.register.name,
                            ts=op.ts,
                            value=op.value,
                            inv=op.started_at,
                            resp=math.inf,
                        )
                    )
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
        op = _PendingOp(self._op_counter, pid, register, kind, callback, self._clock())
        self._ops[op.op_id] = op
        return op

    def _enter_query(self, op: _PendingOp) -> None:
        op.phase = "query"
        op.replies = set()
        op.best_ts, op.best_value = self._initial_of(op.register.name)
        self._broadcast_phase(op)
        self._arm_retry(op)

    def _enter_write(self, op: _PendingOp, ts: Tuple[int, int]) -> None:
        op.phase = "write"
        op.ts = ts
        op.replies = set()
        self._broadcast_phase(op)
        if op.retry_handle is None:  # direct writes skip the query phase
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

    def _retry_delay(self, item: Any) -> float:
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

    def _arm_retry(self, item: Any) -> None:
        """Arm ``item``'s retransmission timer -- the only place one is
        scheduled, for client phases (``abd-retry``) and state-sync
        rounds (``abd-resync-retry`` / ``abd-transfer-retry``) alike.

        Until ``item.done``, every :meth:`_retry_delay` the timer counts
        a retransmission, re-broadcasts the item's current step -- which
        re-evaluates its target set, so whatever is in flight across an
        install follows the config change -- and re-arms itself.  The
        timer rides the :class:`~repro.sim.events.EventLane` of its kind,
        with the ``retry`` closure as the payload; ``item.retry_handle``
        holds the lane token that :meth:`_close_round` / :meth:`_finish`
        cancel.
        """
        lane = self._retry_lanes[item.retry_kind]

        def retry() -> None:
            if item.done:
                return
            self.retransmissions += 1
            item.attempts += 1
            if isinstance(item, _SyncRound):
                self._broadcast_round(item)
            else:
                self._broadcast_phase(item)
            item.retry_handle = self._sim.schedule_lane_after(
                lane, self._retry_delay(item), retry, item.pid
            )

        item.retry_handle = self._sim.schedule_lane_after(
            lane, self._retry_delay(item), retry, item.pid
        )

    def _finish(self, op: _PendingOp, result: Any) -> None:
        op.done = True
        if op.retry_handle is not None:
            self._retry_lanes[op.retry_kind].cancel(op.retry_handle)
        del self._ops[op.op_id]
        if len(self._rule) > 1:  # completed inside a dual-quorum window
            self.dual_quorum_ops += 1
        self.total_op_latency += self._clock() - op.started_at
        op.callback(result)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def _on_delivery(self, message: Message) -> None:
        if message.receiver < 0:
            kind = message.kind
            if kind == "abd.sync-reply":
                # Snapshots address the round's wire origin -- a *replica*
                # (negative receiver) -- but the round's state machine
                # lives here, so route by kind before the replica dispatch.
                self._on_sync_reply(message)
            elif kind == "abd.transfer-ack":
                self._on_transfer_ack(message)  # same: addressed to the origin
            else:
                self.replicas[-message.receiver - 1].handle(
                    message, self.network, self._initial_of
                )
            return
        op = self._ops.get(message.payload[0])
        if op is None or op.done:
            return  # late ack of a completed phase
        if message.kind == "abd.read-reply":
            self._on_read_reply(op, message)
        elif message.kind == "abd.write-ack":
            self._on_write_ack(op, message)

    def _on_read_reply(self, op: _PendingOp, message: Message) -> None:
        if op.phase != "query":
            return
        _, name, ts, value = message.payload
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

    def _on_write_ack(self, op: _PendingOp, message: Message) -> None:
        _, name, ts, value = message.payload
        if op.phase != "write" or ts != op.ts:
            return
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
        register = op.register
        self._count_read(register.name, op.pid)
        if isinstance(register, AtomicRegister):
            register._reads += 1  # keep the per-register counter exact
        self.reads_completed += 1
        self.read_op_latency += self._clock() - op.started_at
        self._record(op, "read", op.best_ts, op.best_value)
        self._finish(op, op.best_value)

    def _complete_write(self, op: _PendingOp) -> None:
        register = op.register
        self.writes_completed += 1
        if op.kind == "fetch-add":
            # One counted read + one counted write, like the shared
            # fetch&add; the local mirror takes the written value.
            self._count_read(register.name, op.pid)
            register.poke(op.value)
            self._count_write(register.name, op.pid, op.value, critical=register.critical)
            self._record(op, "read", op.best_ts, op.best_value)
            self._record(op, "write", op.ts, op.value)
            self._finish(op, op.value - op.amount)
        else:
            register.write(op.pid, op.value)  # mirror + accounting + owner check
            self._record(op, "write", op.ts, op.value)
            self._finish(op, None)


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
