"""End-to-end lint tests: runner and CLI exit codes.

The acceptance contract lives here: ``repro lint`` exits non-zero on a
seeded violation of the rule families (driven through the real CLI
against tmp-dir fixture trees) and exits zero on the committed tree.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import run_lint


def write(root: Path, rel: str, text: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


@pytest.fixture()
def fixture_tree(tmp_path):
    """A minimal lintable package tree that passes every rule."""
    root = tmp_path / "pkg"
    write(root, "sim/events.py", "import heapq\n")
    write(root, "sim/kernel.py", "import heapq\n")
    return root


def lint_cli(root: Path, *extra: str) -> int:
    """Invoke the real ``repro lint`` CLI against a fixture tree."""
    return main(["lint", "--root", str(root), *extra])


class TestSeededViolationsExitNonzeroPerFamily:
    """Acceptance: one seeded violation per family -> CLI exit 1."""

    def test_clean_fixture_tree_exits_zero(self, fixture_tree):
        assert lint_cli(fixture_tree) == 0

    def test_determinism_violation(self, fixture_tree):
        write(fixture_tree, "sim/clocked.py", "import time\nt0 = time.time()\n")
        assert lint_cli(fixture_tree) == 1

    def test_dispatch_violation(self, fixture_tree):
        write(
            fixture_tree,
            "netsim/grabby.py",
            "def drain(queue):\n    return queue._heap[0]\n",
        )
        assert lint_cli(fixture_tree) == 1

    def test_rules_filter_limits_the_run(self, fixture_tree):
        write(fixture_tree, "sim/clocked.py", "import time\nt0 = time.time()\n")
        assert lint_cli(fixture_tree, "--rules", "dispatch") == 0
        assert lint_cli(fixture_tree, "--rules", "determinism") == 1

    def test_suppression_comment_silences_the_finding(self, fixture_tree):
        write(
            fixture_tree,
            "sim/clocked.py",
            "import time\nt0 = time.time()  # repro-lint: disable=determinism-wall-clock\n",
        )
        assert lint_cli(fixture_tree) == 0

    def test_unparsable_file_is_a_finding(self, fixture_tree):
        write(fixture_tree, "sim/broken.py", "def nope(:\n")
        assert lint_cli(fixture_tree) == 1

    def test_unknown_rule_family_is_a_usage_error(self, fixture_tree, capsys):
        assert main(["lint", "--root", str(fixture_tree)]) == 0
        code = main(["lint", "--root", str(fixture_tree), "--rules"])
        assert code == 0  # empty --rules falls back to all families
        with pytest.raises(SystemExit):  # argparse rejects unknown choices
            main(["lint", "--root", str(fixture_tree), "--rules", "astrology"])


class TestCommittedTree:
    """Acceptance: the committed tree lints clean through the real CLI."""

    def test_repro_lint_exits_zero_on_the_committed_tree(self):
        assert main(["lint"]) == 0


class TestRunnerApi:
    def test_run_lint_defaults_to_the_installed_package(self):
        report = run_lint()
        assert report.exit_code == 0
        assert report.files_scanned > 60

    def test_run_lint_rejects_unknown_families(self):
        with pytest.raises(ValueError, match="unknown rule families"):
            run_lint(families=["astrology"])
