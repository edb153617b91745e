"""Positive/negative fixtures for each lint rule family."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.lint import determinism, dispatch, typing_rules
from repro.lint.config import RAW_PUSH_PRODUCERS
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


# ----------------------------------------------------------------------
# Dispatch safety
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
            for i, attr in enumerate(["_heap", "_next_seq"])
        )
        src = make_source(tmp_path, f"def peek(queue):\n{body}\n", "memory/mod.py")
        assert len(dispatch.check(src)) == 2

    def test_own_self_attribute_with_same_name_is_allowed(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            class Lane:
                def __init__(self):
                    self._heap = []

                def grab(self):
                    return self._heap.pop()
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

    @pytest.mark.parametrize("attr", ["push", "next_seq"])
    def test_raw_push_outside_the_producers_is_flagged(self, tmp_path, attr):
        src = make_source(
            tmp_path,
            f"""
            def file_now(sim, entry):
                sim.{attr}
            """,
            "repro/timers/service.py",
        )
        findings = dispatch.check(src)
        assert rules_of(findings) == ["dispatch-raw-push"]
        assert f"Simulator.{attr}" in findings[0].message

    def test_a_prebound_raw_push_is_flagged_too(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            class Fabric:
                def __init__(self, sim):
                    self._push = sim.push
                    self._seq = sim.next_seq
            """,
            "repro/apps/fabric.py",
        )
        assert [f.rule for f in dispatch.check(src)] == ["dispatch-raw-push"] * 2

    @pytest.mark.parametrize("module", RAW_PUSH_PRODUCERS)
    def test_the_producer_modules_may_push(self, tmp_path, module):
        src = make_source(
            tmp_path,
            """
            def file_now(sim, entry):
                sim.push((1.0, sim.next_seq(), 0, None, print, entry))
            """,
            module,
        )
        assert dispatch.check(src) == []

    def test_the_producers_still_may_not_touch_the_heap(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            def peek(sim):
                return sim._heap[0]
            """,
            "repro/netsim/network.py",
        )
        assert rules_of(dispatch.check(src)) == ["dispatch-queue-internals"]

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
            "repro/sim/rng.py",
        )
        assert typing_rules.check(src) == []

    def test_missing_param_annotation_is_flagged(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            def add(a: int, b) -> int:
                return a + b
            """,
            "repro/sim/rng.py",
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
            "repro/sim/rng.py",
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
            "repro/sim/rng.py",
        )
        assert typing_rules.check(src) == []

    def test_module_outside_the_ratchet_is_ignored(self, tmp_path):
        src = make_source(tmp_path, "def f(a):\n    return a\n", "repro/analysis/mod.py")
        assert typing_rules.check(src) == []
