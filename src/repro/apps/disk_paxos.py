"""Multi-disk Disk Paxos: consensus on a redundant SAN.

The paper's motivating deployment (Section 1) is a storage-area network
of commodity disks, with Gafni & Lamport's *Disk Paxos* [9] as the
canonical consensus on top.  :mod:`repro.apps.consensus` implements the
single-disk reduction; this module implements the real thing:

* ``m`` disks, each holding one block register per process
  (``DISK<d>.BLOCK[p]``, written only by ``p`` -- still 1WnR);
* a proposer writes its block to every *available* disk and must reach
  a **majority of disks** in each phase;
* disks can crash (stop serving) at scheduled times: any minority of
  disk failures is tolerated, which is exactly the redundancy argument
  for SAN deployments.

Safety comes from majority intersection across disks (two completed
phases share a disk, so the later ballot observes the earlier block);
liveness again comes from Omega nominating a single proposer.

A request to a crashed disk costs the process a step and is skipped
(it neither writes nor returns a block); availability is part of the
*environment* (the disk returns an error), not of the process's
logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.apps.consensus import EMPTY_BLOCK, AttemptOutcome
from repro.core.algorithm1 import WriteEfficientOmega
from repro.core.interfaces import (
    AlgorithmContext,
    LocalStep,
    OmegaAlgorithm,
    ReadReg,
    Task,
    WriteReg,
)
from repro.memory.arrays import RegisterArray
from repro.memory.memory import SharedMemory


@dataclass
class DiskFleet:
    """The ``m`` disks and their availability schedule."""

    arrays: List[RegisterArray]
    #: Disk index -> crash time (inclusive); absent means always up.
    crash_times: Dict[int, float] = field(default_factory=dict)

    @property
    def m(self) -> int:
        """Number of disks in the fleet."""
        return len(self.arrays)

    @property
    def majority(self) -> int:
        """Quorum size: any two disk majorities intersect."""
        return self.m // 2 + 1

    def available(self, disk: int, now: float) -> bool:
        """Whether ``disk`` still serves requests at ``now``."""
        t = self.crash_times.get(disk)
        return t is None or now < t


class DiskPaxosCell:
    """Per-process Disk Paxos state for one consensus instance."""

    def __init__(self, fleet: DiskFleet, pid: int, n: int, clock: Callable[[], float]) -> None:
        self.fleet = fleet
        self.pid = pid
        self.n = n
        self._clock = clock
        self.mbal, self.bal, self.inp = EMPTY_BLOCK

    def next_ballot(self, above: int) -> int:
        """Smallest ballot of this process strictly greater than ``above``."""
        b = self.pid + 1
        while b <= above:
            b += self.n
        return b

    # ------------------------------------------------------------------
    def _write_block(self, block: Tuple[int, int, Any]) -> Task:
        """Write the own block to every available disk; returns the
        number of disks that accepted it."""
        written = 0
        for d, arr in enumerate(self.fleet.arrays):
            if not self.fleet.available(d, self._clock()):
                yield LocalStep()  # the failed request still costs a step
                continue
            yield WriteReg(arr.register(self.pid), block)
            written += 1
        return written

    def _read_all_blocks(self) -> Task:
        """Read every other process's block from every available disk;
        returns ``(disks_read, blocks)``."""
        disks_read = 0
        blocks: List[Tuple[int, int, Any]] = []
        for d, arr in enumerate(self.fleet.arrays):
            if not self.fleet.available(d, self._clock()):
                yield LocalStep()
                continue
            for q in range(self.n):
                if q == self.pid:
                    continue
                block = yield ReadReg(arr.register(q))
                blocks.append(block or EMPTY_BLOCK)
            disks_read += 1
        return disks_read, blocks

    def attempt(self, ballot: int, my_value: Any) -> Task:
        """One ballot, Disk-Paxos style: each phase needs a majority of
        disks both for the block write and for the read sweep."""
        # ---------------- Phase 1 ----------------
        self.mbal = ballot
        written = yield from self._write_block((ballot, self.bal, self.inp))
        if written < self.fleet.majority:
            return AttemptOutcome(False, None, ballot)
        disks_read, blocks = yield from self._read_all_blocks()
        if disks_read < self.fleet.majority:
            return AttemptOutcome(False, None, ballot)
        max_mbal = max([ballot] + [mb for mb, _, _ in blocks])
        if max_mbal > ballot:
            return AttemptOutcome(False, None, max_mbal)
        best_bal, best_inp = self.bal, self.inp
        for _, bl, ip in blocks:
            if bl > best_bal:
                best_bal, best_inp = bl, ip
        value = best_inp if best_bal > 0 else my_value
        # ---------------- Phase 2 ----------------
        self.bal, self.inp = ballot, value
        written = yield from self._write_block((ballot, ballot, value))
        if written < self.fleet.majority:
            return AttemptOutcome(False, None, ballot)
        disks_read, blocks = yield from self._read_all_blocks()
        if disks_read < self.fleet.majority:
            return AttemptOutcome(False, None, ballot)
        max_mbal = max([ballot] + [mb for mb, _, _ in blocks])
        if max_mbal > ballot:
            return AttemptOutcome(False, None, max_mbal)
        return AttemptOutcome(True, value, max_mbal)


@dataclass
class DiskPaxosShared:
    """Election registers, the disk fleet, and decision dissemination."""

    omega_cls: Type[OmegaAlgorithm]
    omega_shared: Any
    fleet: DiskFleet
    decision: RegisterArray  # DEC[n]: plain registers (dissemination only)
    n: int


class DiskPaxosProcess(OmegaAlgorithm):
    """A process running an Omega election plus Disk Paxos.

    Config keys:

    ``num_disks`` (default 3)
        Fleet size ``m``; any minority of disk crashes is tolerated.
    ``disk_crash_times``
        Mapping disk index -> crash time.
    ``omega_cls`` / ``inputs`` / ``anarchy``
        As in :class:`~repro.apps.consensus.ConsensusProcess`.
    """

    display_name = "disk-paxos-on-omega"

    def __init__(self, ctx: AlgorithmContext, shared: DiskPaxosShared) -> None:
        super().__init__(ctx, shared)
        self.omega: OmegaAlgorithm = shared.omega_cls(ctx, shared.omega_shared)
        self.cell = DiskPaxosCell(shared.fleet, self.pid, self.n, ctx.clock)
        inputs: Dict[int, Any] = ctx.config.get("inputs", {})
        self.my_value: Any = inputs.get(self.pid, f"v{self.pid}")
        self.anarchy: bool = bool(ctx.config.get("anarchy", False))
        self.decision: Optional[Any] = None
        self.decided_at: Optional[float] = None

    @classmethod
    def create_shared(cls, memory: SharedMemory, n: int, config: Dict[str, Any]) -> DiskPaxosShared:
        """Lay out the embedded Omega's registers plus one block array
        per disk (``config["num_disks"]``, crash times included)."""
        omega_cls: Type[OmegaAlgorithm] = config.get("omega_cls", WriteEfficientOmega)
        m = int(config.get("num_disks", 3))
        if m < 1:
            raise ValueError("need at least one disk")
        fleet = DiskFleet(
            arrays=[
                memory.create_array(f"DISK{d}.BLOCK", n, initial=EMPTY_BLOCK) for d in range(m)
            ],
            crash_times=dict(config.get("disk_crash_times", {})),
        )
        return DiskPaxosShared(
            omega_cls=omega_cls,
            omega_shared=omega_cls.create_shared(memory, n, config),
            fleet=fleet,
            decision=memory.create_array("DEC", n, initial=None),
            n=n,
        )

    # -- delegate the election machinery --------------------------------
    def main_task(self) -> Task:
        """The embedded Omega's main task (election runs unchanged)."""
        return self.omega.main_task()

    def timer_task(self) -> Optional[Task]:
        """The embedded Omega's timer task."""
        return self.omega.timer_task()

    def initial_timeout(self) -> Optional[float]:
        """The embedded Omega's initial timeout."""
        return self.omega.initial_timeout()

    def peek_leader(self) -> int:
        """Uncounted observer view of the embedded Omega's leader."""
        return self.omega.peek_leader()

    def leader_query(self) -> Task:
        """Counted in-protocol ``leader()`` query of the embedded Omega."""
        return self.omega.leader_query()

    def extra_tasks(self) -> List[Task]:
        """The Disk Paxos proposer task alongside the Omega's extras."""
        return [self._paxos_task()] + self.omega.extra_tasks()

    # -- the Disk Paxos task ----------------------------------------------
    def _paxos_task(self) -> Task:
        pid, n = self.pid, self.n
        ballot = self.cell.next_ballot(0)
        while self.decision is None:
            for q in range(n):
                if q == pid:
                    continue
                d = yield ReadReg(self.shared.decision.register(q))
                if d is not None:
                    self.decision = d
                    break
            if self.decision is not None:
                break
            if self.anarchy:
                am_leader = True
            else:
                ld = yield from self.omega.leader_query()
                am_leader = ld == pid
            if not am_leader:
                yield LocalStep()
                continue
            outcome = yield from self.cell.attempt(ballot, self.my_value)
            if outcome.decided:
                self.decision = outcome.value
            else:
                ballot = self.cell.next_ballot(outcome.max_mbal_seen)
        self.decided_at = self.ctx.clock()
        yield WriteReg(self.shared.decision.register(pid), self.decision)


__all__ = ["DiskFleet", "DiskPaxosCell", "DiskPaxosProcess", "DiskPaxosShared"]
