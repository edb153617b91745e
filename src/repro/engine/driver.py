"""The parallel, cache-aware experiment driver.

:func:`run_experiment` takes an
:class:`~repro.engine.spec.ExperimentSpec` and produces one
:class:`~repro.engine.summary.RunSummary` per grid cell:

1. load the spec's JSONL cache (``results/engine/``) and keep every
   cell already summarized there;
2. execute the missing cells -- in-process when ``jobs <= 1``, through a
   :class:`~concurrent.futures.ProcessPoolExecutor` otherwise (every
   run is a pure function of its configuration and seed, so the grid is
   embarrassingly parallel);
3. append each completed summary to the cache *as it finishes* and
   return the rows in the spec's deterministic scenario-major order,
   regardless of which worker finished first.

Per-cell failures are captured as tracebacks, not exceptions: in strict
mode (the default) the driver raises :class:`EngineError` *after* all
cells have been attempted and the good ones cached, so a 10k-cell sweep
never loses finished work to one poisoned cell.

**Sharding.**  Giant grids scale past one machine (or one process pool)
by splitting the deterministic cell list into ``N`` contiguous,
balanced shards:

* ``run_experiment(spec, shard=(k, n))`` executes only shard ``k`` of
  ``n`` (1-based) -- the distributed mode behind
  ``repro sweep --shard K/N``, with every shard appending to the same
  content-hashed JSONL cache (the store's exclusive-create header +
  ``O_APPEND`` writes make concurrent shard appends safe);
* ``run_experiment(spec, shards=n)`` runs all ``n`` shards in-process,
  one process pool after another -- same cell partition, one command.

Because results are flushed incrementally, a killed shard leaves every
cell it finished in the cache: re-running it (or the unsharded sweep)
skips the completed cells and recomputes nothing.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine.spec import Cell, ExperimentSpec
from repro.engine.store import ResultStore
from repro.engine.summary import RunSummary
from repro.engine.worker import CellOutcome, execute_cell


def _error_head(error: Optional[str]) -> str:
    """Last non-empty traceback line, or ``"?"``.

    ``error`` may be truthy yet contain only whitespace (e.g. a worker
    that died mid-write); indexing ``splitlines()[-1]`` on it would
    raise IndexError inside the exception constructor.
    """
    lines = (error or "").strip().splitlines()
    return lines[-1] if lines else "?"


class EngineError(RuntimeError):
    """One or more cells failed; carries their captured tracebacks."""

    def __init__(self, failures: List[CellOutcome]) -> None:
        self.failures = failures
        heads = "\n".join(
            f"  {f.key}: {_error_head(f.error)}" for f in failures[:5]
        )
        more = "" if len(failures) <= 5 else f"\n  ... and {len(failures) - 5} more"
        super().__init__(f"{len(failures)} cell(s) failed:\n{heads}{more}")


@dataclass
class EngineReport:
    """Everything one :func:`run_experiment` invocation produced."""

    spec: ExperimentSpec
    #: One row per cell, in the spec's deterministic grid order.
    rows: List[RunSummary]
    #: Failed cells (empty in strict mode, which raises instead).
    failures: List[CellOutcome] = field(default_factory=list)
    cache_hits: int = 0
    executed: int = 0
    jobs: int = 1
    wall_time_s: float = 0.0
    store_path: Optional[Path] = None
    #: ``(k, n)`` when this invocation ran one shard of a larger grid.
    shard: Optional[Tuple[int, int]] = None
    #: In-process shard count (1 = the classic single-pool sweep).
    shards: int = 1
    #: Size of the *full* grid (== ``len(rows)`` unless sharded).
    total_cells: int = 0

    @property
    def ok(self) -> bool:
        """True when every cell produced a summary."""
        return not self.failures


def default_jobs() -> int:
    """Worker count when the caller does not choose: ``REPRO_JOBS`` env
    override, else one worker per CPU."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
#: Called with each batch of completed outcomes (partial-run hygiene:
#: the driver flushes them to the cache immediately).
Flush = Optional[Callable[[List[CellOutcome]], None]]


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse a ``"K/N"`` shard selector into ``(k, n)`` (1-based).

    >>> parse_shard("2/4")
    (2, 4)
    """
    head, sep, tail = text.partition("/")
    try:
        if not sep:
            raise ValueError
        index, count = int(head), int(tail)
    except ValueError:
        raise ValueError(f"shard must look like 'K/N', got {text!r}") from None
    if count < 1 or not 1 <= index <= count:
        raise ValueError(f"shard {text!r} out of range (need 1 <= K <= N)")
    return index, count


def shard_bounds(total: int, index: int, count: int) -> Tuple[int, int]:
    """Slice bounds ``(start, stop)`` of shard ``index`` of ``count``.

    Shards are contiguous and balanced: sizes differ by at most one,
    with the remainder going to the lowest-numbered shards, and the
    ``count`` slices tile ``range(total)`` exactly.
    """
    if count < 1 or not 1 <= index <= count:
        raise ValueError(f"shard {index}/{count} out of range (need 1 <= K <= N)")
    base, extra = divmod(total, count)
    start = (index - 1) * base + min(index - 1, extra)
    return start, start + base + (1 if index <= extra else 0)


def _execute_serial(
    cells: List[Cell], options: Dict[str, Any], flush: Flush = None
) -> List[CellOutcome]:
    outcomes: List[CellOutcome] = []
    for cell in cells:
        outcome = execute_cell(cell, **options)
        outcomes.append(outcome)
        if flush is not None:
            flush([outcome])
    return outcomes


def _execute_parallel(
    cells: List[Cell], options: Dict[str, Any], jobs: int, flush: Flush = None
) -> List[CellOutcome]:
    outcomes: Dict[int, CellOutcome] = {}
    orphaned: List[int] = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        pending = {
            pool.submit(execute_cell, cell, **options): idx
            for idx, cell in enumerate(cells)
        }
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            batch: List[CellOutcome] = []
            for future in done:
                idx = pending.pop(future)
                exc = future.exception()
                if exc is not None:
                    # A worker died (OOM, signal): the executor marks the
                    # whole pool broken and fails every in-flight and
                    # queued future, so most of these cells were never
                    # attempted.  Collect them for an isolated retry.
                    orphaned.append(idx)
                else:
                    outcomes[idx] = future.result()
                    batch.append(outcomes[idx])
            if batch and flush is not None:
                flush(batch)
    # Retry each orphaned cell in its own single-worker pool: healthy
    # cells that were merely queued behind the crash complete normally,
    # while a genuinely poisonous cell kills only its private pool and
    # is recorded as a failure.
    for idx in orphaned:
        try:
            with ProcessPoolExecutor(max_workers=1) as solo:
                outcomes[idx] = solo.submit(execute_cell, cells[idx], **options).result()
        except Exception as exc:  # noqa: BLE001 - crashed again: record it
            outcomes[idx] = CellOutcome(
                key=cells[idx].key, error=f"worker failure: {exc!r}"
            )
        else:
            if flush is not None:
                flush([outcomes[idx]])
    return [outcomes[idx] for idx in range(len(cells))]


def check_sharding(shard: Optional[Tuple[int, int]], shards: int) -> None:
    """Refuse a sharding request :func:`run_experiment` cannot honour."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shard is not None and shards != 1:
        raise ValueError("shard=(k, n) and shards=N are mutually exclusive; pass one, not both")


# ----------------------------------------------------------------------
def run_experiment(
    spec: ExperimentSpec,
    *,
    jobs: Optional[int] = None,
    cache: bool = True,
    results_dir: Path | str | None = None,
    strict: bool = True,
    shard: Optional[Tuple[int, int]] = None,
    shards: int = 1,
) -> EngineReport:
    """Execute (or load) every cell of ``spec`` and return the report.

    Parameters
    ----------
    jobs:
        Worker processes.  ``None`` or ``<= 0`` -> :func:`default_jobs`
        (one per CPU, ``REPRO_JOBS`` overrides); ``1`` runs everything
        in-process (no pool, no pickling).
    cache:
        Serve cells from / append them to the spec's JSONL file.
        Completed cells are appended *incrementally*, so an interrupted
        sweep (or a killed shard) keeps everything it finished.
    results_dir:
        Cache root; ``None`` resolves via ``REPRO_RESULTS_DIR`` or the
        repo-anchored ``results/engine`` default (see
        :func:`repro.engine.store.default_results_dir`).
    strict:
        Raise :class:`EngineError` when any cell failed (after caching
        the successful ones).  ``False`` returns the failures in the
        report and fills their rows' positions by skipping them.
    shard:
        ``(k, n)``, 1-based: execute only the ``k``-th of ``n``
        contiguous balanced shards of the grid (see
        :func:`shard_bounds`) and return only that shard's rows.  For
        distributing one sweep across machines or invocations; every
        shard shares the spec's cache file.
    shards:
        Run the whole grid as this many in-process shards, one process
        pool per shard, sequentially.  Mutually exclusive with
        ``shard``.
    """
    started = time.perf_counter()
    check_sharding(shard, shards)
    if jobs is None or jobs <= 0:
        jobs = default_jobs()
    grid = spec.cells()
    if shard is not None:
        lo, hi = shard_bounds(len(grid), *shard)
        cells = grid[lo:hi]
    else:
        cells = grid
    store = ResultStore(results_dir)  # None -> REPRO_RESULTS_DIR / anchored default

    cached: Dict[Tuple[str, str, int], RunSummary] = store.load(spec) if cache else {}
    pending = [cell for cell in cells if cell.key not in cached]

    flush: Flush = (lambda batch: store.append(spec, batch)) if cache else None
    # Every cell runs with the same worker keywords: built once here.
    options: Dict[str, Any] = {"window": spec.window, "fast": spec.fast, **spec.overrides()}
    fresh: List[CellOutcome] = []
    if pending:
        if shards > 1:
            # In-process multi-shard: partition the *grid* (not the
            # pending list) so the shard boundaries match a distributed
            # --shard K/N run of the same spec, then give each shard's
            # pending cells their own pool.
            for index in range(1, shards + 1):
                lo, hi = shard_bounds(len(grid), index, shards)
                keys = {cell.key for cell in grid[lo:hi]}
                part = [cell for cell in pending if cell.key in keys]
                if not part:
                    continue
                if jobs <= 1 or len(part) == 1:
                    fresh.extend(_execute_serial(part, options, flush))
                else:
                    fresh.extend(_execute_parallel(part, options, min(jobs, len(part)), flush))
        elif jobs <= 1 or len(pending) == 1:
            fresh = _execute_serial(pending, options, flush)
        else:
            fresh = _execute_parallel(pending, options, min(jobs, len(pending)), flush)

    by_key: Dict[Tuple[str, str, int], RunSummary] = dict(cached)
    failures: List[CellOutcome] = []
    for outcome in fresh:
        if outcome.summary is not None:
            by_key[outcome.key] = outcome.summary
        else:
            failures.append(outcome)
    if failures and strict:
        raise EngineError(failures)

    rows = [by_key[cell.key] for cell in cells if cell.key in by_key]
    return EngineReport(
        spec=spec,
        rows=rows,
        failures=failures,
        cache_hits=len(cells) - len(pending),
        executed=len(pending),
        jobs=jobs,
        wall_time_s=time.perf_counter() - started,
        store_path=store.path_for(spec) if cache else None,
        shard=shard,
        shards=shards,
        total_cells=len(grid),
    )


__all__ = [
    "EngineError",
    "EngineReport",
    "check_sharding",
    "default_jobs",
    "parse_shard",
    "run_experiment",
    "shard_bounds",
]
