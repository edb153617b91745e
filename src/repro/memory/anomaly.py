"""The pinned regular-vs-atomic anomaly: where the two levels diverge.

A *regular* register (the paper's requirement, the emulation's default
consistency level) permits something an *atomic* register forbids: two
non-overlapping reads, both concurrent with one slow write, may see the
new value first and the old value second (a **new/old inversion**).
This module pins one deterministic schedule in which the single-phase
ABD read genuinely produces that anomaly -- and in which the atomic
level's write-back phase provably closes it:

* five replicas, majority three; one writer (pid 0) and two readers
  (pids 1 and 2);
* link delays are deterministic per (client, replica) pair: the writer
  is fast **only to replica 0**, reader 1 is fast to replicas
  ``{0, 1, 2}``, reader 2 is fast to replicas ``{2, 3, 4}``; every
  other pair is slow;
* the writer invokes a write at t=0 -- it reaches replica 0 almost
  immediately but needs a slow round trip to assemble its majority, so
  it stays in flight for the whole window;
* reader 1 reads at t=2: its fast majority includes replica 0, so it
  returns the **new** value (legal: the read is concurrent with the
  write);
* reader 2 reads at t=4, *after reader 1 responded*: its fast majority
  ``{2, 3, 4}`` has not heard of the write, so at the regular level it
  returns the **old** value -- a new/old inversion, flagged by
  :func:`repro.memory.linearizability.check_atomic_history` and passed
  by :func:`~repro.memory.linearizability.check_regular_history`.

At the atomic level the schedule is identical except that reader 1's
write-back propagates the new value to its fast majority -- which
intersects reader 2's fast majority in replica 2 -- so reader 2 returns
the new value and the history is linearizable.  The positive/negative
pair is the point: it demonstrates the write-back phase is *load
bearing*, not ceremony, and it keeps the checkers honest (the atomic
checker must flag a real regular history, not only synthetic ones).

Used by ``tests/memory/test_anomaly.py`` and quoted in
EXPERIMENTS.md's "when regular and atomic legitimately differ".
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.memory.emulated import EmulatedMemory, EmulationConfig
from repro.memory.linearizability import OpRecord
from repro.netsim.network import Message
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry

#: Fast one-way link delay of the pinned schedule.
FAST = 0.25
#: Slow one-way link delay (longer than the whole observation window).
SLOW = 50.0
#: Which (client pid, replica index) pairs are fast; everything else is
#: slow.  The writer reaches only replica 0 quickly; the readers' fast
#: majorities intersect in replica 2 -- the write-back's carrier.
FAST_PAIRS: FrozenSet[Tuple[int, int]] = frozenset(
    [(0, 0)]
    + [(1, i) for i in (0, 1, 2)]
    + [(2, i) for i in (2, 3, 4)]
)


class PartitionedLinks:
    """Deterministic per-(client, replica) delays: fast or slow.

    Direction does not matter -- a request and its reply ride the same
    (client, replica) pair -- and no randomness is drawn, so the
    schedule is exactly reproducible.
    """

    def __init__(
        self,
        fast: float = FAST,
        slow: float = SLOW,
        fast_pairs: FrozenSet[Tuple[int, int]] = FAST_PAIRS,
    ) -> None:
        if not 0 < fast <= slow:
            raise ValueError("need 0 < fast <= slow")
        self.fast = fast
        self.slow = slow
        self.fast_pairs = frozenset(fast_pairs)

    def delivery_delay(self, message: Message) -> Optional[float]:
        """The pair's fixed delay; never a drop."""
        client = message.sender if message.sender >= 0 else message.receiver
        replica = -(message.sender if message.sender < 0 else message.receiver) - 1
        return self.fast if (client, replica) in self.fast_pairs else self.slow


def anomaly_history(consistency: str = "regular") -> List[OpRecord]:
    """Run the pinned schedule at ``consistency`` and return its history.

    The returned interval records are ready for the checkers: at
    ``"regular"`` the history passes the regularity check but fails the
    atomic check with a ``new-old-inversion``; at ``"atomic"`` it
    passes both.  Deterministic -- no randomness is drawn anywhere.
    """
    sim = Simulator()
    mem = EmulatedMemory(
        clock=lambda: sim.now,
        sim=sim,
        rng=RngRegistry(0),
        config=EmulationConfig(
            replicas=5,
            consistency=consistency,
            record_history=True,
            retry_interval=1000.0,  # never retransmits inside the window
        ),
    )
    mem.network.behavior = PartitionedLinks()
    reg = mem.create_register("R", owner=0, initial=0)
    mem.start(horizon=1000.0)

    returned: Dict[str, object] = {}
    sim.schedule_at(0.0, lambda: mem.emu_write(0, reg, 1, lambda _: None), kind="anomaly")
    sim.schedule_at(
        2.0,
        lambda: mem.emu_read(1, reg, lambda v: returned.__setitem__("r1", v)),
        kind="anomaly",
    )
    sim.schedule_at(
        4.0,
        lambda: mem.emu_read(2, reg, lambda v: returned.__setitem__("r2", v)),
        kind="anomaly",
    )
    # Run past 2 * SLOW so the write's slow majority completes too and
    # the history contains only finished intervals.
    # Top-level schedule driver, not a dispatch callback: running the
    # simulator here IS the point.
    sim.run(until=4.0 * SLOW)  # repro-lint: disable=dispatch-reentrant-run
    assert returned["r1"] == 1, "reader 1 must see the in-flight write via replica 0"
    return mem.recorded_history()


__all__ = ["FAST", "FAST_PAIRS", "PartitionedLinks", "SLOW", "anomaly_history"]
