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

Every backend is a :class:`~repro.memory.memory.SharedMemory`: the
emulation subclasses it and replaces only the operation semantics, so
the register namespace, the access log, the window queries the theorem
verdicts read and the global-state snapshots are one implementation.
Algorithms, scenario scrambling, the analysis layer and the property
checkers are written against that class, so a backend swap multiplies
every experiment in the repo instead of adding one.

:func:`create_memory` is the single construction point
:class:`~repro.core.runner.Run` uses; ``Run(..., memory="emulated")``
(or ``repro sweep --memory emulated``) selects the backend by name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.memory.memory import SharedMemory
    from repro.sim.kernel import Simulator
    from repro.sim.rng import RngRegistry


#: Backend name -> one-line description (the ``--memory`` choices).
BACKENDS: Dict[str, str] = {
    "shared": "atomic registers linearizing instantaneously (the paper's model)",
    "emulated": "ABD-style quorum emulation of the registers over netsim message passing",
}


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
        Forwarded to every backend (the virtual clock and the read-log
        switch).
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


__all__ = ["BACKENDS", "create_memory"]
