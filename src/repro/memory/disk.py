"""Network-attached-disk model: shared memory with operation latency.

The paper motivates shared-memory Omega with storage-area networks:
"some distributed systems are made up of computers that communicate
through a network of attached disks ... that implements a shared memory
abstraction" (Section 1).  On such hardware a register operation is not
instantaneous: it has an *invocation*, takes effect at some hidden
*linearization point*, and later *responds*.

:class:`Disk` is one of the two interval substrates (the ABD emulation
is the other): it offers the same completion-callback API as
:class:`~repro.memory.emulated.EmulatedMemory` (:meth:`Disk.emu_read`,
:meth:`Disk.emu_write`), through which the runner (see
:mod:`repro.core.runner`) blocks a process until the response.  Each
access applies the register operation at a sampled linearization point
inside its interval and records one
:class:`~repro.memory.linearizability.OpRecord`, stamped like the
emulation's single writer: ``(per-register counter, writer pid)``.
:func:`~repro.memory.linearizability.check_atomic_history` judges the
history, so the SAN experiments double as a test that the substrate
really provides atomic registers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.memory.linearizability import INITIAL_TS, OpRecord
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry


@dataclass(frozen=True, slots=True)
class LatencySample:
    """Sampled timing of one disk access, as offsets from invocation."""

    lin_offset: float
    resp_offset: float


class LatencyModel:
    """Uniform access latency in ``[lo, hi]`` with a uniform
    linearization point inside the interval."""

    def __init__(self, rng: RngRegistry, lo: float = 1.0, hi: float = 5.0) -> None:
        if not (0 < lo <= hi):
            raise ValueError("need 0 < lo <= hi")
        self.lo = lo
        self.hi = hi
        self._rng = rng

    def sample(self, pid: int) -> LatencySample:
        """Draw one operation's (linearization, response) offsets."""
        stream = self._rng.stream(f"disk:{pid}")
        total = stream.uniform(self.lo, self.hi)
        lin = stream.uniform(0.0, total)
        return LatencySample(lin_offset=lin, resp_offset=total)


class Disk:
    """A network-attached disk fronting a set of registers.

    The disk does not store values itself -- registers stay in
    :class:`~repro.memory.memory.SharedMemory` so all the accounting
    keeps working; the disk adds latency, stamps and the interval
    history.  ``Run`` attaches it to the run's simulator.
    """

    def __init__(self, latency: LatencyModel, name: str = "disk0") -> None:
        self.name = name
        self.latency = latency
        self.history: List[OpRecord] = []
        self._stamps: Dict[str, Tuple[int, int]] = {}
        self._sim: Optional[Simulator] = None

    def attach(self, sim: Simulator) -> None:
        """Schedule this disk's accesses on ``sim`` from now on."""
        self._sim = sim

    def emu_read(self, pid: int, register: Any, callback: Callable[[Any], None]) -> None:
        """Start a read; ``callback(value)`` fires at its response."""
        self._access(pid, register, "read", None, callback)

    def emu_write(
        self, pid: int, register: Any, value: Any, callback: Callable[[Any], None]
    ) -> None:
        """Start a write; ``callback(None)`` fires at its response."""
        self._access(pid, register, "write", value, callback)

    def _access(
        self, pid: int, register: Any, kind: str, value: Any, callback: Callable[[Any], None]
    ) -> None:
        """Sample the interval, then linearize and respond inside it.

        An access takes effect at its linearization point even if the
        invoker crashed meanwhile (it already left the process); only
        the invoker's continuation is the callback's to suppress.
        """
        sim = self._sim
        if sim is None:
            raise RuntimeError("disk not attached to a simulator (Run does this)")
        sample = self.latency.sample(pid)
        inv = sim.now
        resp = inv + sample.resp_offset
        returned = None

        def linearize() -> None:
            nonlocal returned
            name = register.name
            if kind == "write":
                register.write(pid, value)
                ts = self._stamps[name] = (self._stamps.get(name, INITIAL_TS)[0] + 1, pid)
                recorded = value
            else:
                recorded = returned = register.read(pid)
                ts = self._stamps.get(name, INITIAL_TS)
            self.history.append(
                OpRecord(len(self.history), kind, pid, name, ts, recorded, inv, resp)
            )

        sim.schedule_after(sample.lin_offset, linearize, kind="disk-lin", pid=pid)
        sim.schedule_after(sample.resp_offset, lambda: callback(returned), kind="disk-resp", pid=pid)


__all__ = ["Disk", "LatencyModel", "LatencySample"]
