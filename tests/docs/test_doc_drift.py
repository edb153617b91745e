"""Doc-drift guard: README/EXPERIMENTS CLI snippets must match the CLI.

Every ``repro <subcommand> ...`` invocation quoted in a fenced code
block of README.md or EXPERIMENTS.md is checked against the real
argument parser: the subcommand must exist and every ``--flag`` must be
one of that subcommand's options.  The README's CLI-overview table must
list exactly the live subcommands, and the scenario/backend names the
docs mention must be registered.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import pytest

from repro.cli import build_parser
from repro.core.runner import BACKENDS
from repro.workloads.registry import SCENARIO_FACTORIES

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
DOCS = [REPO_ROOT / "README.md", REPO_ROOT / "EXPERIMENTS.md"]


def _subparsers() -> Dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return dict(action.choices)


def _fenced_lines(text: str) -> Iterator[str]:
    """Logical lines inside ``` fences, backslash continuations joined."""
    in_fence = False
    pending = ""
    for raw in text.splitlines():
        if raw.strip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            continue
        line = pending + raw.strip()
        if line.endswith("\\"):
            pending = line[:-1] + " "
            continue
        pending = ""
        if line:
            yield line


def _repro_invocations() -> List[Tuple[str, str, List[str]]]:
    """``(doc, subcommand, flags)`` for every quoted repro invocation."""
    found = []
    for doc in DOCS:
        for line in _fenced_lines(doc.read_text(encoding="utf-8")):
            tokens = line.split()
            # Strip leading env assignments (PYTHONPATH=src python -m repro ...).
            while tokens and "=" in tokens[0] and not tokens[0].startswith("-"):
                tokens = tokens[1:]
            if tokens[:3] == ["python", "-m", "repro"]:
                rest = tokens[3:]
            elif tokens[:1] == ["repro"] and len(tokens) > 1:
                rest = tokens[1:]
            else:
                continue
            if not rest or rest[0].startswith("-"):
                continue
            flags = [t for t in rest[1:] if t.startswith("--")]
            found.append((doc.name, rest[0], flags))
    return found


INVOCATIONS = _repro_invocations()


def test_docs_quote_cli_invocations():
    """The drift guard must be guarding something."""
    assert len(INVOCATIONS) >= 8


@pytest.mark.parametrize(
    "doc,subcommand,flags",
    INVOCATIONS,
    ids=[f"{d}:{s}:{'-'.join(f[2:] for f in fl) or 'plain'}" for d, s, fl in INVOCATIONS],
)
def test_quoted_invocation_matches_parser(doc, subcommand, flags):
    subs = _subparsers()
    assert subcommand in subs, f"{doc} quotes unknown subcommand 'repro {subcommand}'"
    options = set(subs[subcommand]._option_string_actions)
    for flag in flags:
        if flag == "--":
            # What follows goes to the program behind the subcommand
            # (repro perf -> bench/run.py), which must take a remainder.
            assert any(
                not action.option_strings and action.nargs == "*"
                for action in subs[subcommand]._actions
            ), f"{doc} quotes 'repro {subcommand} -- ...' but it passes nothing through"
            break
        assert flag in options, (
            f"{doc} quotes 'repro {subcommand} {flag}' but the parser has no "
            f"{flag}; README/EXPERIMENTS drifted from the CLI"
        )


def test_readme_cli_table_lists_every_subcommand():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    table_cmds = set(re.findall(r"\|\s*`repro (\w+)", readme))
    assert table_cmds == set(_subparsers()), (
        "README's CLI-overview table and the parser disagree: "
        f"table={sorted(table_cmds)} parser={sorted(_subparsers())}"
    )


def test_readme_scenario_names_are_registered():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    mentioned = set(re.findall(r"`([a-z0-9-]+)`", readme)) & {
        name for name in SCENARIO_FACTORIES
    }
    # The adversarial-suite and emulated-family tables must name real factories.
    assert {"leader-storm", "timely-churn", "nominal-emulated", "replica-crash"} <= mentioned


def test_readme_documents_every_backend():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for backend in BACKENDS:
        assert f"`{backend}`" in readme or f"--memory {backend}" in readme, (
            f"README does not document the {backend!r} memory backend"
        )


def test_architecture_doc_exists_and_maps_packages():
    """ARCHITECTURE.md must exist, be linked from README, and name every
    top-level package under src/repro."""
    arch_path = REPO_ROOT / "ARCHITECTURE.md"
    assert arch_path.is_file(), "ARCHITECTURE.md is missing"
    arch = arch_path.read_text(encoding="utf-8")
    packages = sorted(
        p.name for p in (REPO_ROOT / "src" / "repro").iterdir() if p.is_dir()
    )
    for package in packages:
        assert f"repro/{package}" in arch or f"repro.{package}" in arch, (
            f"ARCHITECTURE.md does not mention package {package}"
        )
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "ARCHITECTURE.md" in readme, "README does not link ARCHITECTURE.md"
