"""The fuzz loop end to end: determinism, the negative control, replay.

The satellite acceptance bars live here:

* same ``(seed, corpus)`` -> byte-identical genome sequence and
  coverage map, in-process and across ``REPRO_KERNEL`` variants;
* the ``skip-resync`` and ``single-config`` protocol mutants
  (:mod:`tests.mutants`) are caught, shrunk to a mutation-minimal genome
  (complexity <= 6) and pinned as registry-replayable regressions that
  stay red until the mutant is gone.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine.search import replay, violation_count
from repro.fuzz.corpus import Corpus
from repro.fuzz.loop import FuzzConfig, pinned_repro, replay_regressions, run_fuzz
from repro.workloads.registry import ALGORITHMS, build_scenario
from tests.mutants import AMNESIA_GENOME, MEMBERSHIP_GENOME, MUTANTS, fuzz_search

REPO = Path(__file__).resolve().parents[2]

#: Small enough for test wall-clock, large enough to reach >= 3
#: signatures and exercise batching.
QUICK = dict(seed=0, budget=6, batch=6, jobs=2, horizon=900.0)


def quick_config(**overrides) -> FuzzConfig:
    return FuzzConfig(**{**QUICK, **overrides})


def pin_under(mutant: str, genome, root: Path):
    """Fuzz ``genome`` alone under ``mutant``; the run's result."""
    with MUTANTS[mutant].applied():
        return fuzz_search(genome, root)


def audit_violations(payload) -> int:
    """The consistency-audit verdict of a pinned repro, the long way
    round: through ``build_scenario`` and a plain run."""
    scenario = build_scenario(payload["factory"], payload["kwargs"])
    run = scenario.run(
        ALGORITHMS[payload["algorithm"]],
        seed=payload["seed"],
        log_reads=False,
        trace_events=False,
    )
    audit = run.audit_consistency()
    assert audit is not None
    return len(audit.violations)


def fingerprint(result, corpus_dir: Path) -> dict:
    corpus = Corpus.load(corpus_dir)
    return {
        "result": result.to_jsonable(),
        "genomes": sorted(corpus.genomes),
        "coverage": corpus.coverage.keys(),
    }


class TestDeterminism:
    def test_same_seed_same_sequence_and_coverage(self, tmp_path):
        a = run_fuzz(quick_config(), corpus_dir=tmp_path / "a")
        b = run_fuzz(quick_config(), corpus_dir=tmp_path / "b")
        assert json.dumps(fingerprint(a, tmp_path / "a"), sort_keys=True) == json.dumps(
            fingerprint(b, tmp_path / "b"), sort_keys=True
        )
        assert a.genomes_run == QUICK["budget"]
        assert a.total_signatures >= 3

    def test_kernel_variants_agree_byte_for_byte(self, tmp_path):
        """REPRO_KERNEL=python and =compiled produce identical fuzz runs
        (with no built extension the compiled variant falls back, which
        must be equally deterministic)."""
        probe = (
            "import json, sys\n"
            "from pathlib import Path\n"
            "from repro.fuzz.corpus import Corpus\n"
            "from repro.fuzz.loop import FuzzConfig, run_fuzz\n"
            "root = Path(sys.argv[1])\n"
            "result = run_fuzz(FuzzConfig(seed=3, budget=4, batch=4, jobs=2, "
            "horizon=900.0), corpus_dir=root)\n"
            "corpus = Corpus.load(root)\n"
            "print(json.dumps({'result': result.to_jsonable(), "
            "'genomes': sorted(corpus.genomes), "
            "'coverage': corpus.coverage.keys()}, sort_keys=True))\n"
        )
        outputs = {}
        for variant in ("python", "compiled"):
            env = {**os.environ, "REPRO_KERNEL": variant,
                   "PYTHONPATH": str(REPO / "src")}
            proc = subprocess.run(
                [sys.executable, "-c", probe, str(tmp_path / variant)],
                capture_output=True, text=True, timeout=600, env=env, cwd=REPO,
            )
            assert proc.returncode == 0, proc.stderr
            outputs[variant] = proc.stdout
        assert outputs["python"] == outputs["compiled"]

    def test_corpus_reload_skips_already_seen_genomes(self, tmp_path):
        root = tmp_path / "corpus"
        first = run_fuzz(quick_config(), corpus_dir=root)
        second = run_fuzz(quick_config(budget=4), corpus_dir=root)
        assert second.total_signatures >= first.total_signatures
        # The reloaded corpus seeds the dedup set, so the second run
        # explores fresh genomes instead of re-running the corpus.
        assert second.genomes_run == 4
        assert len(Corpus.load(root).genomes) >= first.corpus_size


class TestNegativeControl:
    def test_amnesia_probe_caught_shrunk_and_pinned(self, tmp_path):
        root = tmp_path / "corpus"
        result = pin_under("skip-resync", AMNESIA_GENOME, root)
        assert not result.ok
        assert len(result.violations) == 1
        violation = result.violations[0]
        assert violation.violations > 0
        # Acceptance bar: the pinned repro is <= 6 mutation steps out.
        assert violation.shrunk is not None
        assert violation.shrunk.complexity() <= 6
        assert violation.oracle_runs > 0
        # Pinned payload is engine-ready and the corpus persisted it.
        assert violation.repro["factory"] == "fuzz-cell"
        assert violation.repro["kwargs"]["plan"]
        assert Corpus.load(root).regression_items()

    def test_pinned_regression_replays_red_through_the_registry(self, tmp_path):
        root = tmp_path / "corpus"
        pin_under("skip-resync", AMNESIA_GENOME, root)
        with MUTANTS["skip-resync"].applied():
            rows = replay_regressions(root)
            assert rows and all(count > 0 for _, _, count in rows)
            # ... and directly through build_scenario, the long-way round.
            assert audit_violations(rows[0][1]) > 0

    def test_fixed_emulation_replays_the_regression_clean(self, tmp_path):
        # "The fix" for the pinned regression is the resync round: the
        # same pinned cell on the real emulation runs violation-free.
        root = tmp_path / "corpus"
        pin_under("skip-resync", AMNESIA_GENOME, root)
        rows = replay_regressions(root)
        assert rows and all(count == 0 for _, _, count in rows)
        assert audit_violations(rows[0][1]) == 0

    def test_probe_is_clean_on_the_correct_emulation(self):
        # The canary genome itself carries no violation -- only the
        # mutant does (so fuzz runs on a clean tree can mutate onto
        # fault plans without tripping the oracle).
        summary = replay(pinned_repro(AMNESIA_GENOME, quick_config()))
        assert violation_count(summary) == 0


class TestMembershipNegativeControl:
    """The ``single-config`` mutant: reconfiguration without dual
    quorums or a transfer must be caught, shrunk and pinned exactly like
    the ``skip-resync`` one."""

    def test_membership_probe_caught_shrunk_and_pinned(self, tmp_path):
        root = tmp_path / "corpus"
        result = pin_under("single-config", MEMBERSHIP_GENOME, root)
        assert not result.ok
        assert len(result.violations) == 1
        violation = result.violations[0]
        assert violation.violations > 0
        # Acceptance bar: the pinned repro is <= 6 mutation steps out.
        assert violation.shrunk is not None
        assert violation.shrunk.complexity() <= 6
        # Both timelines survive shrinking: the crash of the last
        # original member AND the full-turnover plan are load-bearing.
        assert violation.shrunk.membership_plan != ()
        assert violation.shrunk.fault_plan != ()
        assert violation.oracle_runs > 0
        # Pinned payload is engine-ready and the corpus persisted it.
        assert violation.repro["factory"] == "fuzz-cell"
        assert violation.repro["kwargs"]["membership"]
        assert Corpus.load(root).regression_items()

    def test_pinned_membership_regression_replays_red_through_the_registry(
        self, tmp_path
    ):
        root = tmp_path / "corpus"
        pin_under("single-config", MEMBERSHIP_GENOME, root)
        with MUTANTS["single-config"].applied():
            rows = replay_regressions(root)
            assert rows and all(count > 0 for _, _, count in rows)
            # ... and directly through build_scenario, the long-way round.
            assert audit_violations(rows[0][1]) > 0

    def test_dual_quorum_replays_the_membership_regression_clean(self, tmp_path):
        # "The fix" is restoring dual-quorum windows and the transfer:
        # the same pinned cell on the real emulation runs violation-free.
        root = tmp_path / "corpus"
        pin_under("single-config", MEMBERSHIP_GENOME, root)
        rows = replay_regressions(root)
        assert rows and all(count == 0 for _, _, count in rows)
        assert audit_violations(rows[0][1]) == 0

    def test_membership_probe_is_clean_on_the_correct_emulation(self):
        # The probe genome carries no violation of its own -- only the
        # mutant does (so clean-tree fuzz runs can mutate onto
        # membership plans without tripping the oracle).
        summary = replay(pinned_repro(MEMBERSHIP_GENOME, quick_config()))
        assert violation_count(summary) == 0
        assert summary.configs_installed > 0
        assert summary.transfer_rounds > 0

    def test_membership_counters_reach_the_coverage_signature(self):
        # The new counters are real coverage features: a churned run and
        # a static run land in different signatures.
        from repro.fuzz.coverage import signature

        churned = dict(signature(replay(pinned_repro(MEMBERSHIP_GENOME, quick_config()))))
        static = dict(signature(replay(pinned_repro(AMNESIA_GENOME, quick_config()))))
        assert churned["configs_installed"] > 0
        assert static["configs_installed"] == 0
        assert churned["transfer_rounds"] > 0


class TestConfigValidation:
    """A fuzz run that would simulate nothing, or nonsense, is refused
    at construction -- an empty pass/fail audit must not go green."""

    @pytest.mark.parametrize(
        "knobs, message",
        [
            ({"budget": 0}, "budget must be >= 1, got 0"),
            ({"budget": -3}, "budget must be >= 1, got -3"),
            ({"batch": 0}, "batch must be >= 1, got 0"),
            ({"horizon": 0.0}, "horizon must be positive and finite, got 0.0"),
            ({"horizon": math.nan}, "horizon must be positive and finite, got nan"),
            ({"horizon": -900.0}, "horizon must be positive and finite, got -900.0"),
        ],
    )
    def test_refuses_knobs_that_run_nothing_or_nonsense(self, knobs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            FuzzConfig(**knobs)

    def test_accepts_the_defaults_and_the_smallest_legal_knobs(self):
        FuzzConfig()
        FuzzConfig(seed=1, budget=1, batch=1, jobs=1, horizon=1e-3)
