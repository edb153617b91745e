"""Protocol mutants: the ABD emulation with one wrong step patched in.

The repro's oracles -- the Theorem 1-4 monitors, the regular/atomic
interval audits and write-ack integrity -- are only worth trusting if
they catch a broken protocol.  Each mutant here is one such break,
expressed as ``unittest.mock.patch.object`` patches of existing
``repro`` attributes; nothing in ``src/`` knows a mutant exists.

:data:`MUTANTS` is the one table: name -> the patched attribute(s) -> a
canary -> the judge that counts the canary's violations.  A mutant is
*killed* when

* its canary is clean without the patch and red under it, and
* every search case under the patch is caught by
  :func:`repro.engine.search.violation_count`, shrunk by ``settle`` and
  pinned, and each pinned repro replays red under the patch and green
  without it.

Searches run with ``jobs=1``, so every forward run, shrink replay and
pinned-repro replay stays in this (patched) process.

Run ``PYTHONPATH=src python -m tests.mutants``: one line per mutant,
then ``mutants killed k/N``; the exit status is 1 below N.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple
from unittest import mock

import repro.memory.emulated as emulated
from repro.engine.search import Violation, replay, violation_count
from repro.engine.summary import RunSummary
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.faults.plan import FaultEvent
from repro.fuzz.genome import ScenarioGenome
from repro.fuzz.loop import FuzzConfig, FuzzResult, run_fuzz
from repro.memory.anomaly import anomaly_history
from repro.memory.emulated import EmulatedMemory, ReplicaNode, _PendingOp
from repro.memory.linearizability import OpRecord, check_atomic_history
from repro.memory.membership import MembershipEvent, QuorumRule, ReplicaConfig, quorum_rule


# ----------------------------------------------------------------------
# The wrong steps
# ----------------------------------------------------------------------
def _serve_out_of_amnesia(self: EmulatedMemory, node: ReplicaNode) -> None:
    """``_begin_recovery`` without the resync round: the recovered
    replica serves reads straight out of its empty store."""
    if not node.crashed:
        return
    node.crashed = False
    node.store.clear()
    self.recoveries += 1


def _old_config_only(self: EmulatedMemory) -> None:
    """``_refresh_quorum_state`` ignoring ``next_config``: window quorums
    consult the installed config alone."""
    self._rule = quorum_rule(self.current_config)
    self._serving = self.current_config.members


def _install_without_transfer(self: EmulatedMemory) -> None:
    """``_begin_transfer`` without the transfer round: joiners serve
    whatever they happened to overhear."""
    nxt = self.next_config
    if nxt is None:
        return
    for idx in nxt.members:
        self.replicas[idx].recovering = False
    self._install_config()


def _majority_minus_one(*configs: ReplicaConfig) -> QuorumRule:
    """``quorum_rule`` one reply short of a majority in every config."""
    return tuple((config.member_set, config.majority - 1) for config in configs)


_enter_write = EmulatedMemory._enter_write


def _read_without_write_back(self: EmulatedMemory, op: _PendingOp, ts: Any) -> None:
    """``_enter_write`` completing an atomic read instead of starting its
    write-back phase."""
    if op.kind == "read":
        self._complete_read(op)
    else:
        _enter_write(self, op, ts)


# ----------------------------------------------------------------------
# Canaries and search cases
# ----------------------------------------------------------------------
#: Two crash/recover pairs on distinct replicas.  One amnesiac replica
#: cannot corrupt a majority quorum; the second crash removes a fresh
#: replica and forces reads to count the amnesiac one.
AMNESIA_PLAN: List[Dict[str, Any]] = [
    {"kind": "replica-crash", "at": 270.0, "replica": 1},
    {"kind": "replica-recover", "at": 630.0, "replica": 1},
    {"kind": "replica-crash", "at": 1125.0, "replica": 0},
    {"kind": "replica-recover", "at": 1440.0, "replica": 0},
]

#: Base horizon of the fuzz search cases.
SEARCH_HORIZON = 900.0

_EMULATED_HORIZON = ScenarioGenome(backend="emulated").horizon(SEARCH_HORIZON)

#: The amnesia shape as a genome: the same two pairs, as fractions of
#: the emulated horizon.
AMNESIA_GENOME = ScenarioGenome(
    backend="emulated",
    fault_plan=tuple(
        FaultEvent(kind=kind, at=fraction * _EMULATED_HORIZON, replica=replica)
        for kind, fraction, replica in (
            ("replica-crash", 0.06, 1),
            ("replica-recover", 0.14, 1),
            ("replica-crash", 0.25, 0),
            ("replica-recover", 0.32, 0),
        )
    ),
)

#: Full config turnover (join 3, join 4, leave 0, leave 1), then the
#: last original replica crashes, so every read quorum is joiners alone:
#: with the transfer they are synced, without it they serve stale state.
MEMBERSHIP_GENOME = ScenarioGenome(
    backend="emulated",
    fault_plan=(FaultEvent(kind="replica-crash", at=0.5 * _EMULATED_HORIZON, replica=2),),
    membership_plan=tuple(
        MembershipEvent(kind=kind, at=fraction * _EMULATED_HORIZON, replica=replica)
        for kind, fraction, replica in (
            ("join", 0.12, 3),
            ("join", 0.18, 4),
            ("leave", 0.24, 0),
            ("leave", 0.30, 1),
        )
    ),
)


def cell(factory: str, algorithm: str = "alg1", seed: int = 0, **kwargs: Any) -> RunSummary:
    """One scenario cell, run exactly as the searches replay it."""
    return replay({"factory": factory, "kwargs": kwargs, "algorithm": algorithm, "seed": seed})


def fuzz_search(genome: ScenarioGenome, corpus_dir: Optional[Path] = None) -> FuzzResult:
    """A one-genome fuzz run seeded with ``genome``."""
    config = FuzzConfig(budget=1, batch=1, jobs=1, horizon=SEARCH_HORIZON)
    return run_fuzz(config, corpus_dir=corpus_dir, initial=[genome])


def campaign_search() -> List[Violation]:
    """The four-plan chaos campaign at seed 0."""
    return run_campaign(CampaignConfig(seed=0, plans=4, horizon=2000.0)).violations


def _turnover_canary() -> RunSummary:
    return cell("membership-canary", transition="dual-quorum")


def _audit_violations(history: List[OpRecord]) -> int:
    return len(check_atomic_history(history).violations)


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Mutant:
    """One protocol mutant: what it patches, what kills it."""

    #: ``(owner, attribute, replacement)`` triples, patched together.
    patches: Tuple[Tuple[Any, str, Any], ...]
    #: The canary input: run once without the patch, once under it.
    canary: Callable[[], Any]
    #: The canary's violation count; above zero is red.
    judge: Callable[[Any], int] = violation_count
    #: ``(label, search)`` cases that must catch, shrink and pin it.
    searches: Tuple[Tuple[str, Callable[[], List[Violation]]], ...] = ()

    @contextlib.contextmanager
    def applied(self) -> Iterator[None]:
        """The mutant patched in for the duration of the block."""
        with contextlib.ExitStack() as stack:
            for owner, attribute, replacement in self.patches:
                stack.enter_context(mock.patch.object(owner, attribute, replacement))
            yield


MUTANTS: Dict[str, Mutant] = {
    "skip-resync": Mutant(
        patches=((EmulatedMemory, "_begin_recovery", _serve_out_of_amnesia),),
        canary=lambda: cell("chaos", horizon=4500.0, plan=AMNESIA_PLAN),
        searches=(
            ("campaign", campaign_search),
            ("fuzz", lambda: fuzz_search(AMNESIA_GENOME).violations),
        ),
    ),
    "single-config": Mutant(
        patches=(
            (EmulatedMemory, "_refresh_quorum_state", _old_config_only),
            (EmulatedMemory, "_begin_transfer", _install_without_transfer),
        ),
        canary=_turnover_canary,
        searches=(("fuzz", lambda: fuzz_search(MEMBERSHIP_GENOME).violations),),
    ),
    "skip-transfer": Mutant(
        patches=((EmulatedMemory, "_begin_transfer", _install_without_transfer),),
        canary=_turnover_canary,
    ),
    "majority-minus-one": Mutant(
        patches=((emulated, "quorum_rule", _majority_minus_one),),
        canary=lambda: cell("emulated-lossy-audit"),
    ),
    # No search reaches this one: every atomic-level factory cell stays
    # clean under it, so only the pinned anomaly schedule can show it.
    "skip-write-back": Mutant(
        patches=((EmulatedMemory, "_enter_write", _read_without_write_back),),
        canary=lambda: anomaly_history("atomic"),
        judge=_audit_violations,
    ),
}


# ----------------------------------------------------------------------
# Judging
# ----------------------------------------------------------------------
@dataclass
class Verdict:
    """How one mutant fared."""

    name: str
    #: Canary violations without / under the patch.
    clean: int = 0
    red: int = 0
    #: Search violations caught under the patch, per search label.
    caught: Dict[str, int] = field(default_factory=dict)
    #: Why the mutant survived; empty when it was killed.
    survived: List[str] = field(default_factory=list)

    @property
    def killed(self) -> bool:
        """True when every check went the mutant's way."""
        return not self.survived

    def line(self) -> str:
        """The one-line report of ``python -m tests.mutants``."""
        searches = "".join(f", {label}: {n} pinned" for label, n in self.caught.items())
        head = f"{self.name:<20} canary {self.clean} -> {self.red} violation(s){searches}"
        if self.killed:
            return f"{head}: killed"
        return f"{head}: SURVIVED ({'; '.join(self.survived)})"


def judge(name: str) -> Verdict:
    """Run ``name``'s canary and searches with and without its patch."""
    mutant = MUTANTS[name]
    verdict = Verdict(name, clean=mutant.judge(mutant.canary()))
    with mutant.applied():
        verdict.red = mutant.judge(mutant.canary())
        found = [(label, search()) for label, search in mutant.searches]
    if verdict.clean:
        verdict.survived.append("canary red without the patch")
    if not verdict.red:
        verdict.survived.append("canary clean under the patch")
    for label, violations in found:
        verdict.caught[label] = len(violations)
        if not violations:
            verdict.survived.append(f"{label} caught nothing")
        for violation in violations:
            if violation.shrunk is None or not violation.repro:
                verdict.survived.append(f"{label} did not shrink and pin")
            with mutant.applied():
                red = violation_count(replay(violation.repro))
            if not red or violation_count(replay(violation.repro)):
                verdict.survived.append(f"{label} repro is not red only under the patch")
    return verdict


def main() -> int:
    """Judge every mutant; print the report; 0 only if all were killed."""
    verdicts = [judge(name) for name in MUTANTS]
    for verdict in verdicts:
        print(verdict.line())
    killed = sum(verdict.killed for verdict in verdicts)
    print(f"mutants killed {killed}/{len(verdicts)}")
    return 0 if killed == len(verdicts) else 1
