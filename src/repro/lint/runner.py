"""Lint orchestration: walk the tree, run rules, report what survives.

:func:`run_lint` is the single programmatic entry point; ``repro lint``
(:func:`repro.cli.cmd_lint`) is a thin argparse shim over it.  The
pipeline is: discover ``*.py`` files under the package root, parse
each once, run every enabled per-file rule, and drop findings silenced
by ``# repro-lint: disable=...`` comments.  Every surviving finding is fatal: nothing is
grandfathered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence

from repro.lint import determinism, dispatch, typing_rules
from repro.lint.config import DEFAULT_ROOT
from repro.lint.findings import Finding, SourceFile

#: Per-file rule entry points, keyed by family.
_FILE_RULES: Dict[str, Callable[[SourceFile], List[Finding]]] = {
    "determinism": determinism.check,
    "dispatch": dispatch.check,
    "typing": typing_rules.check,
}

#: The rule families ``--rules`` may select.
RULE_FAMILIES: FrozenSet[str] = frozenset(_FILE_RULES)


@dataclass
class LintReport:
    """Everything one lint run produced."""

    #: All findings that survived suppression comments (each is fatal).
    findings: List[Finding] = field(default_factory=list)
    #: Findings silenced by disable comments.
    suppressed: int = 0
    #: Number of source files scanned.
    files_scanned: int = 0

    @property
    def exit_code(self) -> int:
        """0 when clean; 1 on any finding."""
        return 1 if self.findings else 0

    def render(self) -> str:
        """Terminal-ready report text."""
        lines = [finding.render() for finding in self.findings]
        lines.append(
            f"repro lint: {self.files_scanned} file(s), "
            f"{len(self.findings)} finding(s), "
            f"{self.suppressed} suppressed"
        )
        return "\n".join(lines)


def iter_source_files(root: Path) -> List[Path]:
    """All lintable ``*.py`` files under ``root``, sorted, caches skipped."""
    return [path for path in sorted(root.rglob("*.py")) if "__pycache__" not in path.parts]


def _display_path(path: Path, root: Path) -> str:
    """Stable, root-anchored display path (``repro/sim/events.py``)."""
    try:
        rel = path.relative_to(root)
    except ValueError:
        return path.as_posix()
    return (Path(root.name) / rel).as_posix()


def run_lint(
    root: Optional[Path] = None, families: Optional[Sequence[str]] = None
) -> LintReport:
    """Lint the tree under ``root`` and return the full report.

    ``root`` defaults to the installed ``repro`` package; ``families``
    restricts the run to a subset of :data:`RULE_FAMILIES`.
    """
    root = (root or DEFAULT_ROOT).resolve()
    selected = frozenset(families) if families else RULE_FAMILIES
    unknown = selected - RULE_FAMILIES
    if unknown:
        raise ValueError(f"unknown rule families: {sorted(unknown)}")

    report = LintReport()
    raw: List[Finding] = []
    sources: Dict[str, SourceFile] = {}
    for path in iter_source_files(root):
        shown = _display_path(path, root)
        source = SourceFile.load(path, display_path=shown)
        sources[shown] = source
        report.files_scanned += 1
        if source.tree is None:
            raw.append(
                Finding(
                    rule="lint-parse-error",
                    path=shown,
                    line=1,
                    message="file does not parse; no rules were applied",
                )
            )
            continue
        for family, rule in _FILE_RULES.items():
            if family in selected:
                raw.extend(rule(source))

    for finding in sorted(raw, key=lambda f: (f.path, f.line, f.rule, f.message)):
        source = sources.get(finding.path)
        if source is not None and source.is_suppressed(finding):
            report.suppressed += 1
            continue
        report.findings.append(finding)
    return report
