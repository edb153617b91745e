"""Repo-anchored filesystem locations.

The engine's JSONL result cache belongs at the repository root
regardless of the caller's working directory, and ``repro perf`` finds
the benchmark contract (``BENCHMARK.json``, ``bench/``) there.  The one
shared rule lives here: walk up from this file to the checkout root and
verify it by its ``pyproject.toml``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional


def repo_root() -> Optional[Path]:
    """The checkout root, or ``None`` when the package is installed
    outside one (no ``pyproject.toml`` at the expected depth)."""
    root = Path(__file__).resolve().parents[2]
    if (root / "pyproject.toml").is_file():
        return root
    return None


__all__ = ["repo_root"]
