"""JSONL result store: re-running a bench is a cache hit.

Each :class:`~repro.engine.spec.ExperimentSpec` maps to one append-only
JSONL file under ``results/engine/`` named
``<spec-name>-<content-hash>.jsonl``.  The first line records the spec
payload (for humans and for format checks); every following line is one
successfully summarized cell::

    {"spec": {...}, "format": 1}
    {"key": ["alg1", "nominal({...})", 0], "summary": {...}}

Because the file is keyed by the spec's *content hash*, any change to
the grid -- different seeds, horizons, window, algorithm set -- lands in
a different file; a re-run of the same spec finds every cell already
present and executes nothing.  Partial files (from an interrupted sweep)
are fine: the driver only executes the missing cells and appends them.

The cache deliberately does not try to detect *code* changes; delete
``results/engine/`` or pass ``cache=False`` after modifying algorithm or
scenario logic.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, Tuple

from repro.engine.spec import SPEC_FORMAT, ExperimentSpec
from repro.paths import repo_root
from repro.engine.summary import RunSummary
from repro.engine.worker import CellOutcome

#: Environment variable overriding the cache root.
ENV_RESULTS_DIR = "REPRO_RESULTS_DIR"


def _anchored_default() -> Path:
    """The repo-anchored cache root.

    Anchored at the checkout root (:func:`repro.paths.repo_root`) so
    ``repro sweep`` invoked from any working directory hits the same
    cache.  For an installed package (no project root above the module)
    the historical CWD-relative default applies.
    """
    root = repo_root()
    if root is not None:
        return root / "results" / "engine"
    return Path("results") / "engine"


def default_results_dir() -> Path:
    """Resolve the cache root: ``REPRO_RESULTS_DIR`` env override first,
    else the repo-anchored default (see :func:`_anchored_default`)."""
    env = os.environ.get(ENV_RESULTS_DIR)
    if env:
        return Path(env).expanduser()
    return _anchored_default()


CellKey = Tuple[str, str, int]


def _write_all(fd: int, data: bytes) -> None:
    """Write every byte of ``data`` to ``fd``.

    A single ``os.write`` is the common case (and, with ``O_APPEND``,
    lands atomically); the loop only continues after a short write
    (signal, near-full disk), which would otherwise silently truncate
    the batch to a torn JSON line.
    """
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


class ResultStore:
    """Reads and appends per-spec JSONL result files.

    ``root=None`` resolves the default at call time (env override,
    then the repo-anchored directory).
    """

    def __init__(self, root: Path | str | None = None) -> None:
        self.root = Path(root) if root is not None else default_results_dir()

    def path_for(self, spec: ExperimentSpec) -> Path:
        """The spec's JSONL file: sanitized name + content hash."""
        safe_name = "".join(c if c.isalnum() or c in "-_." else "-" for c in spec.name)
        return self.root / f"{safe_name}-{spec.content_hash()}.jsonl"

    # ------------------------------------------------------------------
    def load(self, spec: ExperimentSpec) -> Dict[CellKey, RunSummary]:
        """All cached summaries for ``spec``, keyed by cell key.

        Lookup is by *content hash*: if the exact ``<name>-<hash>`` file
        is absent (the experiment was renamed), any ``*-<hash>.jsonl``
        file with the same grid content serves the cells, so renaming
        never orphans a cache.  Malformed lines (torn JSON, JSON that is
        not an object, bytes that are not UTF-8) and format mismatches
        are skipped (the affected cells simply re-run), so a truncated
        file from a killed sweep never wedges the engine.
        """
        path = self.path_for(spec)
        if path.exists():
            candidates = [path]
        else:
            candidates = sorted(self.root.glob(f"*-{spec.content_hash()}.jsonl"))
        out: Dict[CellKey, RunSummary] = {}
        for candidate in candidates:
            out.update(self._load_file(candidate))
        return out

    @staticmethod
    def _load_file(path: Path) -> Dict[CellKey, RunSummary]:
        out: Dict[CellKey, RunSummary] = {}
        for raw in path.read_bytes().splitlines():
            try:
                payload = json.loads(raw.decode("utf-8"))
            except ValueError:  # blank, torn JSON or a torn multi-byte character
                continue
            if not isinstance(payload, dict):
                continue
            if "spec" in payload:
                if payload.get("format") != SPEC_FORMAT:
                    return {}
                continue
            key = payload.get("key")
            summary = payload.get("summary")
            if not isinstance(key, list) or len(key) != 3 or summary is None:
                continue
            try:
                out[(key[0], key[1], int(key[2]))] = RunSummary.from_jsonable(summary)
            except (KeyError, TypeError, ValueError):
                continue
        return out

    # ------------------------------------------------------------------
    def append(self, spec: ExperimentSpec, outcomes: Iterable[CellOutcome]) -> Path:
        """Append successful outcomes; creates the file (with its spec
        header) on first write.  Failed cells are not cached, so they
        re-run on the next invocation.

        Safe under concurrent sweeps of the same spec: the header is
        written with exclusive create (exactly one process wins the
        race; ``path.exists()`` checks would let both write it), and
        the body goes out as one ``O_APPEND`` write, so lines from two
        appenders never interleave mid-record.
        """
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [
            json.dumps(
                {"key": list(outcome.key), "summary": outcome.summary.to_jsonable()},
                sort_keys=True,
            )
            for outcome in outcomes
            if outcome.summary is not None
        ]
        # Exclusive create decides who owns the header; the winner emits
        # header + batch in one append-mode write, the loser just appends
        # its batch.  Every byte goes out through O_APPEND, so a loser
        # appending between the winner's create and its first write can
        # never be overwritten (a positional header write at offset 0
        # could tear the loser's first record).
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND, 0o644)
            header = {"spec": spec.to_payload(), "format": SPEC_FORMAT}
            lines.insert(0, json.dumps(header, sort_keys=True))
        except FileExistsError:
            fd = os.open(path, os.O_WRONLY | os.O_APPEND)
        try:
            if lines:
                _write_all(fd, ("\n".join(lines) + "\n").encode("utf-8"))
        finally:
            os.close(fd)
        return path


__all__ = ["ENV_RESULTS_DIR", "ResultStore", "default_results_dir"]
