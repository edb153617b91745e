"""Finding records, suppression comments, and parsed-source handling.

A :class:`Finding` is one rule violation at one source location.  Rules
never print; they return findings and the runner decides what survives
suppression comments (``# repro-lint: disable=<rule>``).

Suppressions are honoured on the finding's own line or the line
directly above it, and accept a comma-separated list of rule names,
rule families (the prefix before the first ``-``), or ``all``::

    leader = finals.pop()  # repro-lint: disable=determinism-set-pop
    # repro-lint: disable=all
    t0 = time.time()
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from typing import Dict, List, Set

#: Comment grammar: ``# repro-lint: disable=name[,name...]``.
_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([\w\-,\s]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    #: Dashed rule name, e.g. ``determinism-wall-clock``; the family is
    #: the prefix before the first dash.
    rule: str
    #: Path of the offending file, repo-relative when possible.
    path: str
    #: 1-indexed source line.
    line: int
    #: Human-readable description of the violation.
    message: str

    @property
    def family(self) -> str:
        """Rule family: the rule-name prefix before the first dash."""
        return self.rule.split("-", 1)[0]

    def render(self) -> str:
        """Format as ``path:line: [rule] message`` for terminal output."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class SourceFile:
    """A parsed source file handed to every rule.

    Parsing and suppression-comment extraction happen once per file here
    rather than once per rule; rules receive the shared instance.
    """

    #: Path as given to the runner (used in findings verbatim).
    path: str
    #: Raw source text.
    text: str
    #: Parsed module, or ``None`` when the file failed to parse (the
    #: runner emits a ``parse-error`` finding instead).
    tree: ast.Module | None = None
    #: Line -> set of suppressed rule/family names (or ``{"all"}``).
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path, display_path: str | None = None) -> "SourceFile":
        """Read and parse ``path``, collecting suppression comments."""
        text = path.read_text(encoding="utf-8")
        shown = display_path if display_path is not None else str(path)
        source = cls(path=shown, text=text)
        try:
            source.tree = ast.parse(text, filename=shown)
        except SyntaxError:
            source.tree = None
        source.suppressions = _collect_suppressions(text)
        return source

    def is_suppressed(self, finding: Finding) -> bool:
        """True when a disable comment on the finding's line (or the
        line above) names the rule, its family, or ``all``."""
        for line in (finding.line, finding.line - 1):
            names = self.suppressions.get(line)
            if not names:
                continue
            if "all" in names or finding.rule in names or finding.family in names:
                return True
        return False


def _collect_suppressions(text: str) -> Dict[int, Set[str]]:
    """Map line numbers to the rule names disabled on that line.

    Uses the tokenizer rather than a per-line regex so a disable-looking
    string literal cannot silence a rule.  Tokenization errors degrade to
    "no suppressions" -- the parse-error finding covers broken files.
    """
    suppressions: Dict[int, Set[str]] = {}
    try:
        tokens = list(tokenize.generate_tokens(StringIO(text).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return suppressions
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(tok.string)
        if match is None:
            continue
        names = {part.strip() for part in match.group(1).split(",") if part.strip()}
        if names:
            suppressions.setdefault(tok.start[0], set()).update(names)
    return suppressions


def dotted_name(node: ast.AST) -> str | None:
    """Flatten ``a.b.c`` attribute/name chains to a dotted string.

    Returns ``None`` for anything that is not a pure Name/Attribute
    chain (calls, subscripts, ...).
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the canonical dotted names they import.

    ``import time as t`` yields ``{"t": "time"}``;
    ``from os import urandom`` yields ``{"urandom": "os.urandom"}``.
    Star imports are ignored (nothing in this tree uses them).
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def resolve_call_target(node: ast.Call, aliases: Dict[str, str]) -> str | None:
    """Canonical dotted name of a call's target, through import aliases.

    ``t.time()`` with ``import time as t`` resolves to ``time.time``;
    ``urandom(8)`` after ``from os import urandom`` to ``os.urandom``.
    """
    name = dotted_name(node.func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    canonical_head = aliases.get(head, head)
    return f"{canonical_head}.{rest}" if rest else canonical_head
