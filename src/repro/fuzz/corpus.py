"""The persisted fuzz corpus: genomes, coverage, pinned regressions.

Directory layout (all files plain sorted-key JSON)::

    <corpus>/
      coverage.json            # TraceFeatureMap + the base horizon
      genomes/<key>.json       # one ScenarioGenome per novel signature
      regressions/<key>.json   # pinned repro payloads of shrunk violations

A :class:`Corpus` without a root directory is purely in-memory (the
test and smoke mode); with one, every addition is written through
immediately and atomically (temp file + ``os.replace``), so a killed
nightly run keeps everything it found and never leaves a torn file.
Should a file be unreadable anyway, :meth:`Corpus.load` raises a
``ValueError`` naming it.  File names are genome content digests
(:meth:`ScenarioGenome.key`), which makes persistence idempotent --
re-adding a genome rewrites the same bytes -- and keeps directory
listings deterministic.

Regression payloads are the pinned repros of the search pipeline
(:attr:`repro.engine.search.Violation.repro`), exactly the ``repro
chaos`` shape: ``{"factory": "fuzz-cell", "kwargs": ..., "algorithm":
..., "seed": ..., "genome": ...}`` -- replayable through
:func:`repro.engine.search.replay` (``repro fuzz --replay``) long
after the genome code has moved on.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.fuzz.coverage import TraceFeatureMap
from repro.fuzz.genome import ScenarioGenome

#: Coverage-file schema version.
COVERAGE_FORMAT = 1


def _dump(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")  # not a ``*.json``: load skips it
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _load(path: Path) -> Any:
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise ValueError(f"corrupt corpus file {path}: {error}") from error


class Corpus:
    """Genomes that reached novel coverage, plus their pinned failures."""

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = root
        self.genomes: Dict[str, ScenarioGenome] = {}
        self.coverage = TraceFeatureMap()
        #: Pinned repro payloads by genome key (the *shrunk* genome's).
        self.regressions: Dict[str, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, root: Optional[Path]) -> "Corpus":
        """Load a corpus directory (missing/empty -> a fresh corpus)."""
        corpus = cls(root)
        if root is None or not root.is_dir():
            return corpus
        coverage_path = root / "coverage.json"
        if coverage_path.is_file():
            payload = _load(coverage_path)
            corpus.coverage = TraceFeatureMap.from_jsonable(payload.get("signatures"))
        for path in sorted((root / "genomes").glob("*.json")):
            genome = ScenarioGenome.from_jsonable(_load(path))
            corpus.genomes[genome.key()] = genome
        for path in sorted((root / "regressions").glob("*.json")):
            corpus.regressions[path.stem] = _load(path)
        return corpus

    # ------------------------------------------------------------------
    def members(self) -> List[ScenarioGenome]:
        """Corpus genomes in deterministic (key-sorted) order."""
        return [self.genomes[key] for key in sorted(self.genomes)]

    def add_genome(self, genome: ScenarioGenome) -> None:
        """Admit a genome (idempotent; written through when persisted)."""
        key = genome.key()
        self.genomes[key] = genome
        if self.root is not None:
            _dump(self.root / "genomes" / f"{key}.json", genome.to_jsonable())

    def add_regression(self, genome: ScenarioGenome, payload: Dict[str, Any]) -> None:
        """Pin a shrunk violating genome's repro payload."""
        key = genome.key()
        self.regressions[key] = payload
        if self.root is not None:
            _dump(self.root / "regressions" / f"{key}.json", payload)

    def save_coverage(self, base_horizon: float) -> None:
        """Write the coverage map (the base horizon documents how the
        stored genomes' derived horizons were computed)."""
        if self.root is None:
            return
        _dump(
            self.root / "coverage.json",
            {
                "format": COVERAGE_FORMAT,
                "base_horizon": base_horizon,
                "signatures": self.coverage.to_jsonable(),
            },
        )

    def regression_items(self) -> List[Tuple[str, Dict[str, Any]]]:
        """Pinned repros in deterministic (key-sorted) order."""
        return [(key, self.regressions[key]) for key in sorted(self.regressions)]


__all__ = ["COVERAGE_FORMAT", "Corpus"]
