"""Adopt-commit from 1WnR atomic registers.

The standard two-phase construction (Gafni's commit-adopt): each
process writes its proposal to ``A[i]``, scans ``A``; if it saw only
its own value it writes ``(True, v)`` to ``B[i]``, else ``(False, v)``;
it then scans ``B`` and

* **commits** ``v`` when every written ``B`` entry is ``(True, v)``;
* **adopts** ``v`` when some entry is ``(True, v)``;
* **adopts its own proposal** otherwise.

Safety properties (all checked by unit + hypothesis tests):

* *Validity* -- the output value was somebody's proposal;
* *Agreement* -- if any process commits ``v``, every process adopts or
  commits ``v``;
* *Commitment* -- if all proposals are equal, every deciding process
  commits.

This object is the usual safety half of round-based consensus; the
liveness half is Omega, which is the paper's subject.  The consensus in
:mod:`repro.apps.consensus` uses ballots instead, so adopt-commit is
provided as the self-contained, register-only warm-up application --
and as an extra workload over the shared-memory substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.core.interfaces import ReadReg, Task, WriteReg
from repro.memory.arrays import RegisterArray
from repro.memory.memory import SharedMemory


@dataclass(frozen=True, slots=True)
class AdoptCommitOutcome:
    """Result of one adopt-commit participation."""

    committed: bool
    value: Any


class AdoptCommit:
    """One adopt-commit object shared by ``n`` processes.

    Usage inside a process task::

        outcome = yield from ac.propose(pid, value)
    """

    def __init__(self, memory: SharedMemory, n: int, name: str = "AC") -> None:
        self.n = n
        #: Phase-1 proposals; None means "not yet written".
        self.a: RegisterArray = memory.create_array(f"{name}.A", n, initial=None)
        #: Phase-2 flagged values; None means "not yet written".
        self.b: RegisterArray = memory.create_array(f"{name}.B", n, initial=None)

    def propose(self, pid: int, value: Any) -> Task:
        """Participate with ``value``; returns an
        :class:`AdoptCommitOutcome` (generator-style, yields ops)."""
        yield WriteReg(self.a.register(pid), value)
        seen_other = False
        for q in range(self.n):
            if q == pid:
                continue
            other = yield ReadReg(self.a.register(q))
            if other is not None and other != value:
                seen_other = True
        flag: Tuple[bool, Any] = (not seen_other, value)
        yield WriteReg(self.b.register(pid), flag)

        flagged_value: Optional[Any] = None
        all_true = True
        any_written = False
        for q in range(self.n):
            entry = (flag if q == pid else (yield ReadReg(self.b.register(q))))
            if entry is None:
                continue
            any_written = True
            is_true, v = entry
            if is_true:
                flagged_value = v
            else:
                all_true = False
        assert any_written  # we wrote our own entry
        if all_true and flagged_value is not None:
            return AdoptCommitOutcome(committed=True, value=flagged_value)
        if flagged_value is not None:
            return AdoptCommitOutcome(committed=False, value=flagged_value)
        return AdoptCommitOutcome(committed=False, value=value)


__all__ = ["AdoptCommit", "AdoptCommitOutcome"]
