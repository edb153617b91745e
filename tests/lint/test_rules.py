"""Positive/negative fixtures for each lint rule family."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint import determinism, dispatch, purity, registry_rules, typing_rules
from repro.lint.config import REBIND_MARKER
from repro.lint.findings import SourceFile


def make_source(tmp_path: Path, text: str, name: str) -> SourceFile:
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return SourceFile.load(path, display_path=name)


def rules_of(findings):
    return sorted({f.rule for f in findings})


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
class TestDeterminismRule:
    def test_wall_clock_read_is_flagged(self, tmp_path):
        src = make_source(tmp_path, "import time\nt0 = time.time()\n", "sim/mod.py")
        assert rules_of(determinism.check(src)) == ["determinism-wall-clock"]

    def test_aliased_wall_clock_read_is_flagged(self, tmp_path):
        src = make_source(tmp_path, "import time as t\nt0 = t.monotonic()\n", "sim/mod.py")
        assert rules_of(determinism.check(src)) == ["determinism-wall-clock"]

    def test_entropy_read_is_flagged(self, tmp_path):
        src = make_source(
            tmp_path, "from os import urandom\nkey = urandom(16)\n", "memory/mod.py"
        )
        assert rules_of(determinism.check(src)) == ["determinism-entropy"]

    def test_module_level_random_is_flagged(self, tmp_path):
        src = make_source(
            tmp_path, "import random\nx = random.randint(0, 9)\n", "netsim/mod.py"
        )
        assert rules_of(determinism.check(src)) == ["determinism-global-random"]

    def test_seeded_random_instance_is_allowed(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            import random

            def draw(seed):
                rng = random.Random(seed)
                return rng.random()
            """,
            "sim/mod.py",
        )
        assert determinism.check(src) == []

    def test_set_pop_on_set_comprehension_is_flagged(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            def leader_of(last, correct):
                finals = {last[pid] for pid in correct}
                return finals.pop()
            """,
            "props/mod.py",
        )
        assert rules_of(determinism.check(src)) == ["determinism-set-pop"]

    def test_set_pop_on_set_call_is_flagged(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            def leader_of(values):
                common = set(values)
                return common.pop()
            """,
            "analysis/mod.py",
        )
        assert rules_of(determinism.check(src)) == ["determinism-set-pop"]

    def test_list_pop_is_not_flagged(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            def last_of(values):
                stack = list(values)
                return stack.pop()
            """,
            "sim/mod.py",
        )
        assert determinism.check(src) == []

    def test_next_iter_is_flagged(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            def any_of(writers):
                return next(iter(writers))
            """,
            "analysis/mod.py",
        )
        assert rules_of(determinism.check(src)) == ["determinism-next-iter"]

    def test_min_extraction_is_the_clean_alternative(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            def leader_of(values):
                common = set(values)
                return min(common)
            """,
            "analysis/mod.py",
        )
        assert determinism.check(src) == []

    def test_out_of_scope_module_is_ignored(self, tmp_path):
        src = make_source(tmp_path, "import time\nt0 = time.time()\n", "engine/mod.py")
        assert determinism.check(src) == []

    def test_generated_kernel_artifact_is_ignored(self, tmp_path):
        src = make_source(tmp_path, "import time\nt0 = time.time()\n", "sim/_ckernel_src.py")
        assert determinism.check(src) == []


# ----------------------------------------------------------------------
# Kernel purity
# ----------------------------------------------------------------------
KERNEL_OK = f"""
from __future__ import annotations

import heapq
from typing import Any

class EventQueue:
    pass

{REBIND_MARKER} ---------------------------------------------------
import os  # the uncompiled tail may import anything
"""


class TestPurityRule:
    def test_clean_kernel_module_passes(self, tmp_path):
        src = make_source(tmp_path, KERNEL_OK, "sim/events.py")
        assert purity.check(src) == []

    def test_missing_rebind_marker_is_flagged(self, tmp_path):
        src = make_source(tmp_path, "import heapq\n", "sim/kernel.py")
        assert rules_of(purity.check(src)) == ["purity-rebind-marker"]

    def test_import_outside_the_closure_is_flagged(self, tmp_path):
        src = make_source(
            tmp_path, f"import os\n\n{REBIND_MARKER}\n", "sim/events.py"
        )
        assert rules_of(purity.check(src)) == ["purity-import"]

    def test_relative_import_is_flagged(self, tmp_path):
        src = make_source(
            tmp_path, f"from . import events\n\n{REBIND_MARKER}\n", "sim/kernel.py"
        )
        assert rules_of(purity.check(src)) == ["purity-import"]

    def test_sibling_kernel_import_is_allowed(self, tmp_path):
        src = make_source(
            tmp_path,
            f"from repro.sim.events import EventQueue\n\n{REBIND_MARKER}\n",
            "sim/kernel.py",
        )
        assert purity.check(src) == []

    def test_unsupported_decorator_is_flagged(self, tmp_path):
        src = make_source(
            tmp_path,
            f"""
            import functools

            @functools.lru_cache(maxsize=None)
            def hot(x):
                return x

            {REBIND_MARKER}
            """,
            "sim/kernel.py",
        )
        assert "purity-decorator" in rules_of(purity.check(src))

    def test_property_decorator_is_allowed(self, tmp_path):
        src = make_source(
            tmp_path,
            f"""
            class Simulator:
                @property
                def now(self):
                    return self._now

            {REBIND_MARKER}
            """,
            "sim/kernel.py",
        )
        assert purity.check(src) == []

    def test_dynamic_attribute_injection_is_flagged(self, tmp_path):
        src = make_source(
            tmp_path,
            f"""
            def install(obj, name, fn):
                setattr(obj, name, fn)

            {REBIND_MARKER}
            """,
            "sim/events.py",
        )
        assert rules_of(purity.check(src)) == ["purity-dynamic"]

    def test_tail_below_the_marker_is_exempt(self, tmp_path):
        src = make_source(
            tmp_path,
            f"""
            import heapq

            {REBIND_MARKER}
            import os
            setattr(object, "x", 1)
            """,
            "sim/events.py",
        )
        assert purity.check(src) == []

    def test_non_kernel_module_is_ignored(self, tmp_path):
        src = make_source(tmp_path, "import os\nsetattr(object, 'x', 1)\n", "sim/rng.py")
        assert purity.check(src) == []


# ----------------------------------------------------------------------
# Batch-dispatch safety
# ----------------------------------------------------------------------
class TestDispatchRule:
    def test_queue_internal_access_is_flagged(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            def drain(queue):
                return queue._heap[0]
            """,
            "netsim/mod.py",
        )
        assert rules_of(dispatch.check(src)) == ["dispatch-queue-internals"]

    def test_every_private_slot_is_covered(self, tmp_path):
        body = "\n".join(
            f"    x{i} = queue.{attr}"
            for i, attr in enumerate(
                ["_heap", "_buckets", "_next_seq", "_direct_time"]
            )
        )
        src = make_source(tmp_path, f"def peek(queue):\n{body}\n", "memory/mod.py")
        assert len(dispatch.check(src)) == 4

    def test_own_self_attribute_with_same_name_is_allowed(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            class Lane:
                def __init__(self):
                    self._buckets = []

                def grab(self):
                    return self._buckets.pop()
            """,
            "netsim/mod.py",
        )
        assert dispatch.check(src) == []

    def test_reentrant_sim_run_is_flagged(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            def handler(self, message):
                self.sim.run(until=10.0)
            """,
            "timers/mod.py",
        )
        assert rules_of(dispatch.check(src)) == ["dispatch-reentrant-run"]

    def test_scenario_run_is_not_flagged(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            def execute(scenario, algorithm):
                return scenario.run(algorithm, seed=0)
            """,
            "workloads/mod.py",
        )
        assert dispatch.check(src) == []

    def test_kernel_module_itself_is_out_of_scope(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            def fuse(queue):
                return queue._heap
            """,
            "sim/other.py",
        )
        assert dispatch.check(src) == []


# ----------------------------------------------------------------------
# Strict typing
# ----------------------------------------------------------------------
class TestTypingRule:
    def test_fully_annotated_function_passes(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            def add(a: int, b: int) -> int:
                return a + b
            """,
            "repro/sim/variant.py",
        )
        assert typing_rules.check(src) == []

    def test_missing_param_annotation_is_flagged(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            def add(a: int, b) -> int:
                return a + b
            """,
            "repro/sim/variant.py",
        )
        findings = typing_rules.check(src)
        assert rules_of(findings) == ["typing-missing-annotation"]
        assert "'b'" in findings[0].message

    def test_missing_return_annotation_is_flagged(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            def add(a: int, b: int):
                return a + b
            """,
            "repro/sim/variant.py",
        )
        assert rules_of(typing_rules.check(src)) == ["typing-missing-annotation"]

    def test_self_and_cls_are_exempt(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            class Box:
                def get(self) -> int:
                    return 1

                @classmethod
                def make(cls) -> "Box":
                    return cls()
            """,
            "repro/sim/variant.py",
        )
        assert typing_rules.check(src) == []

    def test_module_outside_the_ratchet_is_ignored(self, tmp_path):
        src = make_source(tmp_path, "def f(a):\n    return a\n", "repro/analysis/mod.py")
        assert typing_rules.check(src) == []


# ----------------------------------------------------------------------
# Registry completeness (tree-level)
# ----------------------------------------------------------------------
def write_tree(tmp_path: Path, *, cli: str, registry: str | None = None,
               backend: str | None = None, emulated: str | None = None,
               tests: dict | None = None) -> Path:
    root = tmp_path / "pkg"
    root.mkdir(parents=True, exist_ok=True)
    (root / "cli.py").write_text(textwrap.dedent(cli), encoding="utf-8")
    if registry is not None:
        (root / "workloads").mkdir(exist_ok=True)
        (root / "workloads" / "registry.py").write_text(
            textwrap.dedent(registry), encoding="utf-8"
        )
    for rel, text in (("backend.py", backend), ("emulated.py", emulated)):
        if text is not None:
            (root / "memory").mkdir(exist_ok=True)
            (root / "memory" / rel).write_text(textwrap.dedent(text), encoding="utf-8")
    tests_dir = tmp_path / "tests"
    tests_dir.mkdir(exist_ok=True)
    for name, text in (tests or {}).items():
        (tests_dir / name).write_text(text, encoding="utf-8")
    return root


class TestRegistryRule:
    def test_uncovered_factory_is_flagged(self, tmp_path):
        root = write_tree(
            tmp_path,
            cli="CHECK_SCENARIOS = ['a']\nCHECK_EXEMPT_SCENARIOS = []\n",
            registry="SCENARIO_FACTORIES = {'a': 1, 'b': 2}\n",
        )
        findings = registry_rules.check_tree(root, tmp_path / "tests")
        assert ["registry-check-coverage"] == rules_of(findings)
        assert any("'b'" in f.message for f in findings)

    def test_exempt_list_covers_a_factory(self, tmp_path):
        root = write_tree(
            tmp_path,
            cli="CHECK_SCENARIOS = ['a']\nCHECK_EXEMPT_SCENARIOS = ['b']\n",
            registry="SCENARIO_FACTORIES = {'a': 1, 'b': 2}\n",
        )
        assert registry_rules.check_tree(root, tmp_path / "tests") == []

    def test_missing_exempt_list_is_flagged(self, tmp_path):
        root = write_tree(
            tmp_path,
            cli="CHECK_SCENARIOS = ['a']\n",
            registry="SCENARIO_FACTORIES = {'a': 1}\n",
        )
        findings = registry_rules.check_tree(root, tmp_path / "tests")
        assert any("CHECK_EXEMPT_SCENARIOS" in f.message for f in findings)

    def test_stale_check_entry_is_flagged(self, tmp_path):
        root = write_tree(
            tmp_path,
            cli="CHECK_SCENARIOS = ['a', 'ghost']\nCHECK_EXEMPT_SCENARIOS = []\n",
            registry="SCENARIO_FACTORIES = {'a': 1}\n",
        )
        findings = registry_rules.check_tree(root, tmp_path / "tests")
        assert any("unknown scenario 'ghost'" in f.message for f in findings)

    def test_checked_and_exempted_overlap_is_flagged(self, tmp_path):
        root = write_tree(
            tmp_path,
            cli="CHECK_SCENARIOS = ['a']\nCHECK_EXEMPT_SCENARIOS = ['a']\n",
            registry="SCENARIO_FACTORIES = {'a': 1}\n",
        )
        findings = registry_rules.check_tree(root, tmp_path / "tests")
        assert any("both checked and exempted" in f.message for f in findings)

    def test_backend_without_cli_choice_is_flagged(self, tmp_path):
        root = write_tree(
            tmp_path,
            cli="CHECK_SCENARIOS = []\nCHECK_EXEMPT_SCENARIOS = []\n",
            backend="BACKENDS = {'shared': 'x', 'astral': 'y'}\n",
            tests={"test_mem.py": "use('shared'); use('astral')\n"},
        )
        findings = registry_rules.check_tree(root, tmp_path / "tests")
        assert rules_of(findings) == ["registry-cli-surface"]
        assert len(findings) == 2  # neither key is surfaced

    def test_dynamic_sorted_choices_cover_every_backend(self, tmp_path):
        root = write_tree(
            tmp_path,
            cli=(
                "CHECK_SCENARIOS = []\nCHECK_EXEMPT_SCENARIOS = []\n"
                "choices = sorted(BACKENDS)\n"
            ),
            backend="BACKENDS = {'shared': 'x', 'emulated': 'y'}\n",
            tests={"test_mem.py": "use('shared'); use('emulated')\n"},
        )
        assert registry_rules.check_tree(root, tmp_path / "tests") == []

    def test_link_model_without_test_reference_is_flagged(self, tmp_path):
        root = write_tree(
            tmp_path,
            cli=(
                "CHECK_SCENARIOS = []\nCHECK_EXEMPT_SCENARIOS = []\n"
                "choices = sorted(LINK_MODELS)\n"
            ),
            emulated="LINK_MODELS = {'sync': 1, 'wormhole': 2}\n",
            tests={"test_links.py": "model = 'sync'\n"},
        )
        findings = registry_rules.check_tree(root, tmp_path / "tests")
        assert rules_of(findings) == ["registry-test-coverage"]
        assert any("'wormhole'" in f.message for f in findings)
