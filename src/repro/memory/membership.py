"""Dynamic replica membership: versioned configs and churn timelines.

The PR 4-8 emulation froze the replica set at ``start()``: crashed
replicas could recover (PR 8) but never be *replaced*, so the system
degraded monotonically.  This module adds the RAMBO-style vocabulary
the emulation reconfigures with:

* :class:`ReplicaConfig` -- a versioned member set (config id +
  replica indices) with its majority-quorum size;
* :class:`MembershipEvent` -- one operator action, ``join`` (a fresh
  replica index enters the member set) or ``leave`` (a member exits);
* :class:`MembershipPlan` -- a validated, JSON-round-trippable
  timeline of membership events, mirroring the
  :class:`repro.faults.plan.FaultPlan` idioms so plans travel inside
  scenario-factory kwargs through the parallel engine's content-hashed
  specs.

Each event triggers one *transition*: the emulation opens a two-config
window in which every read/write quorum must intersect a majority of
**both** the old and the new config, then a state-transfer round
installs the new config and garbage-collects the old
(:mod:`repro.memory.emulated`).  Overlapping events queue and run
back-to-back, one transition at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

#: The membership kinds a plan may schedule, in timeline tie-break
#: order (a join sorts before a leave at equal times so a
#: replace-one-replica pair keeps the member set large).
MEMBERSHIP_KINDS: Tuple[str, ...] = ("join", "leave")

#: How the emulation behaves during a transition window.
#: ``dual-quorum`` is the correct RAMBO-style mode: window quorums
#: intersect a majority of both configs and a state-transfer round
#: gates the install.  ``single-config`` is the DELIBERATELY BROKEN
#: negative-control mode: window quorums consult the old config only
#: and the install skips the state transfer, so joiners serve with
#: whatever they happened to overhear -- the classic naive
#: reconfiguration bug the history audits must catch.
TRANSITION_MODES: Tuple[str, ...] = ("dual-quorum", "single-config")

#: Spec/CLI-level membership overrides (``repro run|sweep
#: --membership``): ``none`` strips the membership plan from every
#: emulated cell (the churn-free control), ``churn`` forces the
#: canonical :func:`churn_plan` -- one mid-run replace-one-replica
#: reconfiguration scaled to each cell's horizon -- onto every emulated
#: cell.
MEMBERSHIP_MODES: Tuple[str, ...] = ("none", "churn")


@dataclass(frozen=True)
class ReplicaConfig:
    """One versioned replica configuration: config id + member set."""

    config_id: int
    members: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.config_id < 0:
            raise ValueError(f"negative config id {self.config_id}")
        canonical = tuple(sorted(int(i) for i in self.members))
        if not canonical:
            raise ValueError("a replica config needs at least one member")
        if len(set(canonical)) != len(canonical):
            raise ValueError(f"config {self.config_id} repeats a member index")
        if canonical[0] < 0:
            raise ValueError(f"config {self.config_id} has a negative member index")
        object.__setattr__(self, "members", canonical)

    @property
    def majority(self) -> int:
        """Quorum size: any two majorities of one config intersect."""
        return len(self.members) // 2 + 1

    @property
    def member_set(self) -> FrozenSet[int]:
        """The members as a frozenset (quorum-intersection checks)."""
        return frozenset(self.members)


#: A quorum rule: the ``(member set, majority)`` pair of every config
#: currently in force -- one pair normally, two (old then new) inside a
#: dual-quorum transition window.
QuorumRule = Tuple[Tuple[FrozenSet[int], int], ...]


def quorum_rule(*configs: ReplicaConfig) -> QuorumRule:
    """The :data:`QuorumRule` requiring a majority of each of ``configs``."""
    return tuple((config.member_set, config.majority) for config in configs)


def quorum_met(rule: QuorumRule, replies: AbstractSet[int], exclude: int = -1) -> bool:
    """THE quorum predicate: ``replies`` holds a majority of *every*
    config in ``rule`` (strangers never count).

    Every quorum decision of the emulation -- read and write phases,
    ABD write-backs, amnesia resyncs, both halves of a state transfer
    -- is this one test.  Any two reply sets that pass it for the same
    config intersect in a member of that config, which is the whole
    safety argument: a read quorum meets every completed write's
    quorum, and inside a transition window (two pairs) it meets the
    quorums of both adjacent configs.

    ``exclude`` is the resync variant: a recovering replica may not
    certify its own amnesia, so it is struck from every member set and
    each majority is capped at the members that remain.  The uncapped
    majority still intersects every completed write's quorum in a
    non-amnesiac holder; the cap only matters for a two-member config,
    where the single other member holds every completed write.
    """
    for members, majority in rule:
        if exclude in members:
            members = members - {exclude}
            majority = min(majority, len(members))
        if len(replies & members) < majority:
            return False
    return True


@dataclass(frozen=True)
class MembershipEvent:
    """One timeline entry: a replica joins or leaves the member set."""

    kind: str
    at: float
    replica: int

    def __post_init__(self) -> None:
        if self.kind not in MEMBERSHIP_KINDS:
            raise ValueError(
                f"unknown membership kind {self.kind!r}; choose from {list(MEMBERSHIP_KINDS)}"
            )
        if self.at < 0:
            raise ValueError(f"negative membership time {self.at} for {self.kind}")
        if self.replica < 0:
            raise ValueError(f"{self.kind} needs a non-negative replica index")

    # ------------------------------------------------------------------
    def sort_key(self) -> Tuple[float, int, int]:
        """Deterministic timeline ordering (time, then kind priority)."""
        return (self.at, MEMBERSHIP_KINDS.index(self.kind), self.replica)

    def to_jsonable(self) -> Dict[str, Any]:
        """The plain-dict form (scenario kwargs, JSON payloads)."""
        return {"kind": self.kind, "at": self.at, "replica": self.replica}

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, Any]) -> "MembershipEvent":
        """Rebuild an event from :meth:`to_jsonable` output."""
        data = dict(payload)
        unknown = set(data) - {"kind", "at", "replica"}
        if unknown:
            raise ValueError(f"unknown membership-event key(s): {sorted(unknown)}")
        return cls(
            kind=str(data.get("kind", "")),
            at=float(data.get("at", -1.0)),
            replica=int(data.get("replica", -1)),
        )


@dataclass(frozen=True)
class MembershipPlan:
    """A sorted timeline of :class:`MembershipEvent` entries."""

    events: Tuple[MembershipEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "events", tuple(sorted(self.events, key=MembershipEvent.sort_key))
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Any:
        return iter(self.events)

    # ------------------------------------------------------------------
    def validate(self, replicas: int) -> None:
        """Check the timeline is a legal state machine for ``replicas``.

        Joined replicas extend the replica array, so a join must carry
        the next fresh index (``replicas``, then ``replicas + 1``, ...);
        a leave must name a current member; and the member set must
        never drop below two (a single survivor has no non-trivial
        quorum left to intersect).
        """
        if replicas < 2:
            raise ValueError(f"membership plans need >= 2 initial replicas, got {replicas}")
        members: Set[int] = set(range(replicas))
        next_index = replicas
        for ev in self.events:
            if ev.kind == "join":
                if ev.replica != next_index:
                    raise ValueError(
                        f"join of replica {ev.replica} out of order: the next fresh "
                        f"index is {next_index} (joins extend the replica array)"
                    )
                members.add(ev.replica)
                next_index += 1
            else:  # leave
                if ev.replica not in members:
                    raise ValueError(f"leave of replica {ev.replica}: not a member")
                members.discard(ev.replica)
                if len(members) < 2:
                    raise ValueError(
                        f"leave of replica {ev.replica} at t={ev.at} would drop the "
                        "member set below two"
                    )

    # ------------------------------------------------------------------
    def member_timeline(self, replicas: int) -> Tuple[Tuple[float, Tuple[int, ...]], ...]:
        """``(at, members_after)`` snapshots, one per event.

        The pre-plan configuration ``(0.0, (0, ..., replicas-1))`` is
        always the first entry, so a consumer can walk membership state
        against any other timeline (e.g. crash times).
        """
        members: Set[int] = set(range(replicas))
        out: List[Tuple[float, Tuple[int, ...]]] = [(0.0, tuple(sorted(members)))]
        for ev in self.events:
            if ev.kind == "join":
                members.add(ev.replica)
            else:
                members.discard(ev.replica)
            out.append((ev.at, tuple(sorted(members))))
        return tuple(out)

    def max_replica_index(self, replicas: int) -> int:
        """One past the largest replica index the run will ever host."""
        joins = sum(1 for ev in self.events if ev.kind == "join")
        return replicas + joins

    # ------------------------------------------------------------------
    def to_jsonable(self) -> List[Dict[str, Any]]:
        """The plain list-of-dicts form (scenario kwargs, JSON payloads)."""
        return [ev.to_jsonable() for ev in self.events]

    @classmethod
    def from_jsonable(cls, payload: Optional[Sequence[Mapping[str, Any]]]) -> "MembershipPlan":
        """Rebuild a plan from :meth:`to_jsonable` output (``None`` -> empty)."""
        return cls(tuple(MembershipEvent.from_jsonable(ev) for ev in payload or ()))


def churn_plan(
    replicas: int, horizon: float, *, start_frac: float = 0.3, gap_frac: float = 0.25
) -> MembershipPlan:
    """The canonical replace-one-replica churn: join a fresh replica at
    ``start_frac * horizon``, retire replica 0 one ``gap_frac`` later.

    This is the plan the ``--membership churn`` override forces onto
    every emulated cell and the one the fuzzer's membership axis
    mutates in: two back-to-back transitions (each with its own
    dual-quorum window and state transfer), scaled to the cell's
    horizon so every run reconfigures mid-flight with time to settle.
    """
    return MembershipPlan(
        (
            MembershipEvent("join", start_frac * horizon, replicas),
            MembershipEvent("leave", (start_frac + gap_frac) * horizon, 0),
        )
    )


__all__ = [
    "MEMBERSHIP_KINDS",
    "MEMBERSHIP_MODES",
    "MembershipEvent",
    "MembershipPlan",
    "QuorumRule",
    "ReplicaConfig",
    "TRANSITION_MODES",
    "churn_plan",
    "quorum_met",
    "quorum_rule",
]
