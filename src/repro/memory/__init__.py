"""Shared-memory substrate: atomic registers, arrays, statistics, disks.

The paper's processes communicate *only* by reading and writing atomic
one-writer/multi-reader (1WnR) registers.  This package provides:

* :class:`~repro.memory.register.AtomicRegister` -- an owner-checked
  1WnR register whose operations linearize at simulator-time points;
* :class:`~repro.memory.arrays.RegisterArray` /
  :class:`~repro.memory.arrays.RegisterMatrix` -- the shapes the
  algorithms use (``PROGRESS[n]``, ``STOP[n]``, ``SUSPICIONS[n][n]``,
  ``LAST[n][n]``), with per-entry ownership;
* :class:`~repro.memory.memory.SharedMemory` -- the namespace plus the
  access log that the theorems are *checked* against (who wrote when,
  which registers are still growing, global state snapshots).  Each
  access is recorded once: a register counts its own reads, and the
  write log is the only write record;
* :class:`~repro.memory.mwmr.MultiWriterRegister` -- for the paper's
  Section 3.5 nWnR variant;
* :mod:`~repro.memory.emulated` -- the ``"emulated"`` backend (a
  ``SharedMemory`` subclass; ``Run``'s register assembly picks the
  backend by name from :data:`repro.core.runner.BACKENDS`): an
  ABD-style majority-quorum emulation of the registers over
  :mod:`repro.netsim` message passing (replica nodes, timestamped
  values, reader/writer phases, retransmission, replica crashes);
* :mod:`~repro.memory.membership` -- dynamic replica membership for the
  emulation: versioned :class:`~repro.memory.membership.ReplicaConfig`
  member sets and validated join/leave
  :class:`~repro.memory.membership.MembershipPlan` timelines driving
  RAMBO-style two-config reconfiguration;
* :mod:`~repro.memory.disk` -- a network-attached-disk model (the SAN
  deployment the paper motivates) with non-instantaneous operations;
* :mod:`~repro.memory.linearizability` -- the one interval history of
  the two interval substrates (the disk and the emulation): one
  :class:`~repro.memory.linearizability.OpRecord` per operation, judged
  by one regular/atomic checker.  The runner drives both substrates
  through one blocking-operation path.
"""

from repro.memory.arrays import RegisterArray, RegisterMatrix
from repro.memory.emulated import EmulatedMemory, EmulationConfig
from repro.memory.membership import MembershipEvent, MembershipPlan, ReplicaConfig
from repro.memory.memory import SharedMemory
from repro.memory.mwmr import MultiWriterRegister
from repro.memory.register import AtomicRegister, OwnershipError

__all__ = [
    "AtomicRegister",
    "EmulatedMemory",
    "EmulationConfig",
    "MembershipEvent",
    "MembershipPlan",
    "MultiWriterRegister",
    "ReplicaConfig",
    "OwnershipError",
    "RegisterArray",
    "RegisterMatrix",
    "SharedMemory",
]
