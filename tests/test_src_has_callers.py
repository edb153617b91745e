"""Every top-level name in ``src/repro`` has a caller outside the tests.

A class, function or UPPER_CASE constant defined at the top level of a
``src/repro`` module (``__init__`` modules aside) must be referenced at
least once besides its own definition: in the code of its own module or
of any file under ``src/``, ``bench/``, ``benchmarks/``, ``examples/``
or ``tools/``.  A reference is a ``Name`` read, an ``Attribute`` or an
import alias.  Strings (``__all__`` entries, docstrings), the imports
of ``__init__`` modules (re-exports) and test files do not count: a
capability that only its own unit test calls is dead weight.

Names are matched by spelling, not by module, so the check is a lower
bound on deadness: a reference to any same-spelled name keeps a
definition.  Methods are not checked (too many protocol hooks and
duck-typed entry points to gate).
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path
from typing import Dict, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
CALLER_ROOTS = ("src", "bench", "benchmarks", "examples", "tools")
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*$")

#: Names kept without a production caller, one reason each.
ALLOWLIST: Dict[str, str] = {
    "FixedDelay": "the deterministic base the delay-model tests wrap in stall, GST and churn models",
    "forever_readers": "the Theorem 4 reader census; tests check the algorithms' read patterns with it",
    "AdoptCommit": "the adopt-commit object of the apps/ consensus extension, exercised by its tests",
    "lease_intervals": "the leader-lease view of a trace; tests judge message-passing runs with it",
    "anomaly_history": "the pinned regular-vs-atomic divergence EXPERIMENTS.md cites and the mutant canary",
}


def _python_files(root: Path) -> List[Path]:
    return sorted(p for p in root.rglob("*.py") if "tests" not in p.relative_to(REPO_ROOT).parts)


@functools.lru_cache(maxsize=None)
def _definitions() -> List[Tuple[str, str]]:
    """``(module path, name)`` of every top-level definition to check."""
    found = []
    for path in _python_files(SRC):
        if path.name == "__init__.py":
            continue
        module = str(path.relative_to(REPO_ROOT))
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name) and CONSTANT.match(t.id)]
            else:
                continue
            found.extend((module, name) for name in names)
    return found


@functools.lru_cache(maxsize=None)
def _references() -> Set[str]:
    """Every name read, attribute and import alias outside the tests."""
    seen: Set[str] = set()
    for root in CALLER_ROOTS:
        for path in _python_files(REPO_ROOT / root):
            reexports = path.name == "__init__.py"
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    seen.add(node.id)
                elif isinstance(node, ast.Attribute):
                    seen.add(node.attr)
                elif isinstance(node, ast.alias) and not reexports:
                    seen.add(node.name.rpartition(".")[2])
    return seen


def test_every_top_level_name_has_a_caller() -> None:
    references = _references()
    uncalled = [
        f"{path}: {name}"
        for path, name in _definitions()
        if name not in references and name not in ALLOWLIST
    ]
    assert not uncalled, "top-level names no production code references:\n" + "\n".join(uncalled)


def test_the_allowlist_names_only_uncalled_definitions() -> None:
    # An entry whose name gained a caller, or is no longer defined, goes.
    defined = {name for _, name in _definitions()}
    references = _references()
    stale = sorted(name for name in ALLOWLIST if name not in defined or name in references)
    assert not stale, f"allowlist entries to drop: {stale}"
