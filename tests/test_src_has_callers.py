"""Every top-level name and method in ``src/repro`` has a caller outside the tests.

A class, function or UPPER_CASE constant defined at the top level of a
``src/repro`` module (``__init__`` modules aside) must be referenced at
least once besides its own definition: in the code of its own module or
of any file under ``src/``, ``bench/``, ``benchmarks/``, ``examples/``
or ``tools/``.  A reference is a ``Name`` read, an ``Attribute`` or an
import alias.  Strings (``__all__`` entries, docstrings), the imports
of ``__init__`` modules (re-exports) and test files do not count: a
capability that only its own unit test calls is dead weight.

Methods and properties of ``src/repro`` classes are held to the same
rule, dunders and the ``visit_*`` hooks of ``ast.NodeVisitor`` classes
aside: the protocol calls those by their spelling.

Names are matched by spelling, not by module or class, so the check is
a lower bound on deadness: a reference to any same-spelled name keeps a
definition.

The same holds for imports: a name a ``src/repro`` module imports
(``__init__`` modules aside) must be read somewhere in that module, in
code, in a quoted annotation or in its ``__all__``.
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

#: Methods kept without a production caller, ``"Class.method"``, one reason each.
METHOD_ALLOWLIST: Dict[str, str] = {
    "AdoptCommit.propose": "the one operation of the allowlisted adopt-commit object",
    "FaultPlan.last_event_time": "the generator's quiet-tail bound; its tests check generated plans against it",
    "MembershipPlan.member_timeline": "the plan's member-set walk; mutation tests check membership genomes with it",
    "RegisterMatrix.peek_column": "the per-register reference that the cached column_sums are tested against",
    "RunTrace.record_leader_sample": "the row-at-a-time way into a trace; the judge tests build traces with it",
    "SharedMemory.read_log": "the whole read log as records; the read-accounting tests compare it to the columns",
    "Simulator.fired_by_kind": "the per-kind census of a traced run; tests pin event mixes with it",
}


#: Imports kept without a use in their module, ``"module: name"``.
UNUSED_IMPORT_ALLOWLIST: Dict[str, str] = {
    "src/repro/faults/campaign.py: summarize_run": "the benchmark's span recorder patches it on this module",
    "src/repro/fuzz/loop.py: summarize_run": "the benchmark's span recorder patches it on this module",
}

#: A string that may name a module-level binding (a quoted annotation
#: such as ``Optional["SharedMemory"]`` or an ``__all__`` entry).
_NAME_EXPRESSION = re.compile(r"[A-Za-z_][\w.\[\], ]*$")


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


@functools.lru_cache(maxsize=None)
def _methods() -> List[Tuple[str, str, str]]:
    """``(module path, class, method)`` of every method and property to
    check: dunders and ``ast.NodeVisitor`` ``visit_*`` hooks aside."""
    found = []
    for path in _python_files(SRC):
        module = str(path.relative_to(REPO_ROOT))
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            visitor = any(
                (base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")) == "NodeVisitor"
                for base in cls.bases
            )
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = node.name
                if (name.startswith("__") and name.endswith("__")) or (visitor and name.startswith("visit_")):
                    continue
                found.append((module, cls.name, name))
    return found


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


def test_every_method_has_a_caller() -> None:
    references = _references()
    uncalled = [
        f"{path}: {cls}.{name}"
        for path, cls, name in _methods()
        if name not in references and f"{cls}.{name}" not in METHOD_ALLOWLIST
    ]
    assert not uncalled, "methods no production code references:\n" + "\n".join(uncalled)


def test_the_method_allowlist_names_only_uncalled_methods() -> None:
    defined = {f"{cls}.{name}": name for _, cls, name in _methods()}
    references = _references()
    stale = sorted(
        entry for entry in METHOD_ALLOWLIST if entry not in defined or defined[entry] in references
    )
    assert not stale, f"method allowlist entries to drop: {stale}"


def _imported_names(tree: ast.Module) -> List[Tuple[int, str]]:
    """``(line, bound name)`` of every import in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.asname or alias.name.partition(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            found.extend((node.lineno, alias.asname or alias.name) for alias in node.names)
    return found


def _used_names(tree: ast.Module) -> Set[str]:
    """Every name read in ``tree``, in code or in a name-shaped string."""
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _NAME_EXPRESSION.match(node.value):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(sub.id for sub in ast.walk(quoted) if isinstance(sub, ast.Name))
    return used


def test_every_import_is_used() -> None:
    unused = []
    for path in _python_files(SRC):
        if path.name == "__init__.py":
            continue
        module = str(path.relative_to(REPO_ROOT))
        tree = ast.parse(path.read_text())
        used = _used_names(tree)
        unused.extend(
            f"{module}:{line}: {name}"
            for line, name in _imported_names(tree)
            if name not in used and f"{module}: {name}" not in UNUSED_IMPORT_ALLOWLIST
        )
    assert not unused, "imports their module never uses:\n" + "\n".join(unused)


def test_the_import_allowlist_names_only_unused_imports() -> None:
    stale = []
    for entry in UNUSED_IMPORT_ALLOWLIST:
        module, _, name = entry.partition(": ")
        tree = ast.parse((REPO_ROOT / module).read_text())
        if name not in {bound for _, bound in _imported_names(tree)} or name in _used_names(tree):
            stale.append(entry)
    assert not stale, f"import allowlist entries to drop: {stale}"
