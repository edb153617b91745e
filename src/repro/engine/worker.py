"""The per-cell worker entry point.

:func:`execute_cell` is the function the parallel driver submits to its
process pool: it receives one picklable :class:`repro.engine.spec.Cell`,
rebuilds the scenario and algorithm from their references, executes the
run in the low-overhead mode and returns a compact
:class:`~repro.engine.summary.RunSummary` -- never a full
:class:`~repro.core.runner.RunResult`.

It is deliberately a plain top-level function of one picklable argument
so it works under every multiprocessing start method, and it never
raises: failures come back as a :class:`CellOutcome` carrying the full
traceback, so one poisoned cell cannot take down a 10k-cell sweep.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.engine.spec import Cell
from repro.engine.summary import RunSummary, summarize_run


@dataclass(frozen=True)
class CellOutcome:
    """What one worker invocation produced: a summary or a traceback."""

    key: Tuple[str, str, int]
    summary: Optional[RunSummary] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the cell produced a summary."""
        return self.error is None


def run_point(
    factory: str,
    kwargs: Dict[str, Any],
    algorithm: str,
    seed: int,
    *,
    window: float = 100.0,
    fast: bool = True,
    memory: Optional[str] = None,
    consistency: Optional[str] = None,
    membership: Optional[str] = None,
) -> RunSummary:
    """Build, run and summarize one ``(factory, kwargs, algorithm, seed)``
    point -- the shape every pinned repro payload carries.

    This is the one build -> run -> summarize block behind engine cells
    (:func:`run_cell`), chaos-plan replays and fuzz replays, so the
    shrinkers' oracles and ``--replay`` see byte-identical summaries to
    the batched forward path.  ``fast`` (the default) is the
    low-overhead mode: no read log, no event trace.

    ``memory`` is the spec-level backend override: ``None`` (the
    default) leaves the scenario's own backend choice in force, a
    backend name forces that backend onto the cell (the
    ``repro sweep --memory emulated`` path -- and ``"shared"`` forces
    the shared backend even onto emulated-native scenarios).
    ``consistency`` is the spec-level consistency-level override for
    emulated cells (``repro sweep --consistency``); cells that end up
    on the shared backend drop it (their registers are atomic by
    construction).  ``membership`` is the spec-level dynamic-membership
    override for emulated cells (``repro sweep --membership``), dropped
    the same way on shared-backend cells.
    """
    from repro.workloads.registry import build_scenario, resolve_algorithm

    scenario = build_scenario(factory, kwargs)
    overrides: Dict[str, Any] = {"log_reads": False, "trace_events": False} if fast else {}
    if memory is not None:
        overrides["memory"] = memory
    if consistency is not None and (memory or scenario.memory) == "emulated":
        overrides["consistency"] = consistency
    if membership is not None and (memory or scenario.memory) == "emulated":
        overrides["membership"] = membership
    result = scenario.run(resolve_algorithm(algorithm), seed=seed, **overrides)
    return summarize_run(
        result,
        scenario_name=scenario.name,
        margin=scenario.margin,
        window=window,
        assumption=scenario.assumption,
    )


def run_cell(
    cell: Cell,
    window: float = 100.0,
    fast: bool = True,
    memory: Optional[str] = None,
    consistency: Optional[str] = None,
    membership: Optional[str] = None,
) -> RunSummary:
    """Execute one cell in-process and return its summary (raises on
    error); the overrides are :func:`run_point`'s."""
    started = time.perf_counter()
    summary = run_point(
        cell.scenario.factory,
        cell.scenario.kwargs_dict(),
        cell.algorithm.target,
        cell.seed,
        window=window,
        fast=fast,
        memory=memory,
        consistency=consistency,
        membership=membership,
    )
    summary.algorithm = cell.algorithm.label  # prefer the caller's label
    summary.wall_time_s = time.perf_counter() - started
    return summary


def execute_cell(
    cell: Cell,
    window: float = 100.0,
    fast: bool = True,
    memory: Optional[str] = None,
    consistency: Optional[str] = None,
    membership: Optional[str] = None,
) -> CellOutcome:
    """Pool-safe wrapper around :func:`run_cell`: captures errors."""
    try:
        return CellOutcome(
            key=cell.key,
            summary=run_cell(
                cell,
                window=window,
                fast=fast,
                memory=memory,
                consistency=consistency,
                membership=membership,
            ),
        )
    except Exception:  # noqa: BLE001 - the driver re-raises in strict mode
        return CellOutcome(key=cell.key, error=traceback.format_exc())


__all__ = ["CellOutcome", "execute_cell", "run_cell", "run_point"]
