"""The memory-backend layer: one register API, pluggable substrates.

The paper's model ``AS[n, AWB]`` takes 1WMR regular registers as a
primitive.  How those registers are *realized* is a deployment choice,
and this module makes it a first-class, pluggable axis:

* ``"shared"`` -- :class:`~repro.memory.memory.SharedMemory`: every
  operation linearizes instantaneously at a virtual-time point (the
  paper's model taken literally, and the fastest substrate);
* ``"emulated"`` -- :class:`~repro.memory.emulated.EmulatedMemory`: an
  ABD-style quorum emulation over :mod:`repro.netsim` message passing
  (reader/writer phases, majority acks, timestamped replica values),
  for deployments with no physical shared memory.

Every backend implements the :class:`MemoryBackend` protocol --
register-namespace construction, the read/write accounting hooks (with
the no-log read fast path), the window queries the theorem verdicts
read, and global-state snapshots.  Algorithms, scenario scrambling,
the analysis layer and the property checkers are all written against
this protocol, so a backend swap multiplies every experiment in the
repo instead of adding one.

:func:`create_memory` is the single construction point
:class:`~repro.core.runner.Run` uses; ``Run(..., memory="emulated")``
(or ``repro sweep --memory emulated``) selects the backend by name.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.memory.arrays import RegisterArray, RegisterMatrix
    from repro.memory.memory import SharedMemory, WriteRecord
    from repro.memory.mwmr import MultiWriterRegister
    from repro.memory.register import AtomicRegister
    from repro.sim.kernel import Simulator
    from repro.sim.rng import RngRegistry


#: Backend name -> one-line description (the ``--memory`` choices).
BACKENDS: Dict[str, str] = {
    "shared": "atomic registers linearizing instantaneously (the paper's model)",
    "emulated": "ABD-style quorum emulation of the registers over netsim message passing",
}


@runtime_checkable
class MemoryBackend(Protocol):
    """The substrate surface the rest of the repo is written against.

    The protocol covers four concerns:

    * **namespace construction** -- ``create_register`` / ``create_array``
      / ``create_matrix`` / ``create_mwmr``, called once per run by the
      algorithm's ``create_shared``;
    * **accounting hooks** -- ``_count_read`` / ``_count_write``, invoked
      by the register objects on every counted access.  ``_count_read``
      is picked once at construction time: with ``log_reads`` it also
      appends the read to the columnar read log (time, pid and register
      name columns, no record object), without it only the per-pid
      counters move.  Backends must therefore route reads through the
      *instance attribute*, never the class method;
    * **window queries and censuses** -- the write index the
      Theorem 3/4 verdicts and the write-statistics views query after
      a run;
    * **global snapshots** -- the Theorem 5 recurring-state harness.

    :class:`~repro.memory.memory.SharedMemory` is the reference
    implementation; :class:`~repro.memory.emulated.EmulatedMemory`
    subclasses it, sharing the namespace and the accounting while
    replacing the *operation semantics* (reads and writes become
    asynchronous quorum phases driven by the run's process runtime).
    """

    log_reads: bool
    write_log: List["WriteRecord"]

    def create_register(
        self, name: str, owner: Optional[int], initial: Any = 0, critical: bool = False
    ) -> "AtomicRegister":
        """Create and register a named 1WnR register."""
        ...

    def create_array(
        self,
        name: str,
        n: int,
        initial: Any = 0,
        critical: bool = False,
        owner_of: Optional[Callable[[int], int]] = None,
    ) -> "RegisterArray":
        """Create a named array of 1WnR registers."""
        ...

    def create_matrix(
        self,
        name: str,
        n: int,
        initial: Any = 0,
        critical: bool = False,
        owner_of: Optional[Callable[[int, int], int]] = None,
    ) -> "RegisterMatrix":
        """Create a named matrix of 1WnR registers."""
        ...

    def create_mwmr(
        self, name: str, initial: Any = 0, critical: bool = False
    ) -> "MultiWriterRegister":
        """Create a multi-writer register (Section 3.5 variant)."""
        ...

    def all_registers(self) -> List[Any]:
        """Every register object, name-sorted (observer/scenario use)."""
        ...

    def _count_read(self, name: str, pid: int) -> None:
        """Accounting hook: one counted read of ``name`` by ``pid``."""
        ...

    def _count_write(self, name: str, pid: int, value: Any, critical: bool) -> None:
        """Accounting hook: one counted write of ``name`` by ``pid``."""
        ...

    def writes_in(self, t0: float, t1: float) -> List["WriteRecord"]:
        """Write records with ``t0 <= time < t1``."""
        ...

    def writers_in(self, t0: float, t1: float) -> FrozenSet[int]:
        """Pids that wrote at least once in ``[t0, t1)``."""
        ...

    def snapshot(self) -> Tuple[Tuple[str, Any], ...]:
        """Hashable snapshot of the full register state."""
        ...

    @property
    def total_reads(self) -> int:
        """Counted reads across all processes."""
        ...

    @property
    def total_writes(self) -> int:
        """Counted writes across all processes."""
        ...


def create_memory(
    backend: str,
    *,
    clock: Callable[[], float],
    log_reads: bool = True,
    sim: Optional["Simulator"] = None,
    rng: Optional["RngRegistry"] = None,
    emulation: Optional[Mapping[str, Any]] = None,
) -> "SharedMemory":
    """Build the named backend (the single construction point of ``Run``).

    Parameters
    ----------
    backend:
        A key of :data:`BACKENDS` (``"shared"`` or ``"emulated"``).
    clock / log_reads:
        Forwarded to every backend (the virtual clock and the no-log
        read fast path switch).
    sim / rng:
        Required by the emulated backend (its replica messages ride the
        run's simulator; its link delays draw from the run's RNG
        registry).  Ignored by ``"shared"``.
    emulation:
        Plain-dict knobs for
        :class:`~repro.memory.emulated.EmulationConfig` (replica count,
        link model, crash schedule...); ``None`` means the defaults.
        Rejected for ``"shared"``, where it would be silently dead
        configuration.

    Returns the backend instance (always a
    :class:`~repro.memory.memory.SharedMemory` subtype, so every
    consumer of the access logs keeps working unchanged).
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown memory backend {backend!r}; choose from {sorted(BACKENDS)}"
        )
    if backend == "shared":
        if emulation:
            raise ValueError(
                "emulation options were provided but the backend is 'shared'; "
                "pass memory='emulated' or drop the options"
            )
        from repro.memory.memory import SharedMemory

        return SharedMemory(clock=clock, log_reads=log_reads)

    from repro.memory.emulated import EmulatedMemory, EmulationConfig

    if sim is None or rng is None:
        raise ValueError("the emulated backend needs the run's simulator and RNG registry")
    config = EmulationConfig.from_dict(emulation or {})
    return EmulatedMemory(clock=clock, sim=sim, rng=rng, config=config, log_reads=log_reads)


__all__ = ["BACKENDS", "MemoryBackend", "create_memory"]
