"""Unit tests for the lint core: findings, suppressions, alias maps."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.lint.findings import (
    Finding,
    SourceFile,
    dotted_name,
    import_aliases,
    resolve_call_target,
)


def make_source(tmp_path: Path, text: str, name: str = "mod.py") -> SourceFile:
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return SourceFile.load(path, display_path=name)


class TestFinding:
    def test_family_is_the_prefix_before_the_first_dash(self):
        f = Finding(rule="determinism-wall-clock", path="a.py", line=3, message="m")
        assert f.family == "determinism"

    def test_render_is_path_line_rule_message(self):
        f = Finding(rule="r-x", path="p.py", line=3, message="boom")
        assert f.render() == "p.py:3: [r-x] boom"


class TestSuppressions:
    def test_same_line_disable_by_rule_name(self, tmp_path):
        src = make_source(tmp_path, "x = 1  # repro-lint: disable=determinism-set-pop\n")
        f = Finding(rule="determinism-set-pop", path="mod.py", line=1, message="m")
        assert src.is_suppressed(f)

    def test_preceding_line_disable(self, tmp_path):
        src = make_source(tmp_path, "# repro-lint: disable=dispatch-queue-internals\nimport os\n")
        f = Finding(rule="dispatch-queue-internals", path="mod.py", line=2, message="m")
        assert src.is_suppressed(f)

    def test_family_name_disables_every_rule_in_the_family(self, tmp_path):
        src = make_source(tmp_path, "x = 1  # repro-lint: disable=determinism\n")
        f = Finding(rule="determinism-next-iter", path="mod.py", line=1, message="m")
        assert src.is_suppressed(f)

    def test_all_disables_everything(self, tmp_path):
        src = make_source(tmp_path, "x = 1  # repro-lint: disable=all\n")
        f = Finding(rule="anything-at-all", path="mod.py", line=1, message="m")
        assert src.is_suppressed(f)

    def test_unrelated_rule_name_does_not_suppress(self, tmp_path):
        src = make_source(tmp_path, "x = 1  # repro-lint: disable=dispatch-queue-internals\n")
        f = Finding(rule="determinism-set-pop", path="mod.py", line=1, message="m")
        assert not src.is_suppressed(f)

    def test_comma_separated_list(self, tmp_path):
        src = make_source(
            tmp_path, "x = 1  # repro-lint: disable=dispatch-queue-internals, determinism-set-pop\n"
        )
        for rule in ("dispatch-queue-internals", "determinism-set-pop"):
            assert src.is_suppressed(Finding(rule=rule, path="mod.py", line=1, message="m"))

    def test_disable_inside_a_string_literal_is_ignored(self, tmp_path):
        src = make_source(tmp_path, 'x = "# repro-lint: disable=all"\n')
        f = Finding(rule="r-x", path="mod.py", line=1, message="m")
        assert not src.is_suppressed(f)

    def test_distant_comment_does_not_suppress(self, tmp_path):
        src = make_source(tmp_path, "# repro-lint: disable=all\n\n\nx = 1\n")
        f = Finding(rule="r-x", path="mod.py", line=4, message="m")
        assert not src.is_suppressed(f)


class TestAliasResolution:
    def test_plain_import(self):
        tree = ast.parse("import time\ntime.time()")
        aliases = import_aliases(tree)
        call = tree.body[1].value
        assert resolve_call_target(call, aliases) == "time.time"

    def test_aliased_import(self):
        tree = ast.parse("import time as t\nt.monotonic()")
        call = tree.body[1].value
        assert resolve_call_target(call, import_aliases(tree)) == "time.monotonic"

    def test_from_import(self):
        tree = ast.parse("from os import urandom\nurandom(8)")
        call = tree.body[1].value
        assert resolve_call_target(call, import_aliases(tree)) == "os.urandom"

    def test_from_import_with_alias(self):
        tree = ast.parse("from os import urandom as rnd\nrnd(8)")
        call = tree.body[1].value
        assert resolve_call_target(call, import_aliases(tree)) == "os.urandom"

    def test_dotted_name_flattens_chains(self):
        node = ast.parse("a.b.c").body[0].value
        assert dotted_name(node) == "a.b.c"

    def test_dotted_name_rejects_calls(self):
        node = ast.parse("a().b").body[0].value
        assert dotted_name(node) is None

    def test_unparsable_file_has_no_tree(self, tmp_path):
        src = make_source(tmp_path, "def broken(:\n")
        assert src.tree is None
