"""Experiments FUZZ -- coverage-guided scenario fuzzing as a workload.

The fuzzer (:mod:`repro.fuzz`) walks the scenario space one axis
mutation at a time, keeping genomes whose runs land in novel
trace-feature signatures.  These experiments price it and pin its two
headline behaviours:

* ``FUZZ_coverage_sweep`` -- a fixed-seed budget through the parallel
  engine: how many distinct behaviour signatures a modest corpus
  reaches, at what wall-clock cost, with the clean-tree bar (zero
  violations) asserted on the way;
* ``FUZZ_negative_control`` -- the recover-without-resync canary: the
  oracles catch the broken emulation, the shrinker reduces it to a
  mutation-minimal genome, and the pinned repro replays red through the
  scenario registry.
"""

from __future__ import annotations

from _helpers import emit

from repro.analysis.report import format_table
from repro.fuzz.loop import FuzzConfig, amnesia_probe, replay_regressions, run_fuzz

BASE_HORIZON = 1500.0


def test_fuzz_coverage_sweep(benchmark):
    """A fixed-seed 24-genome budget reaches a two-digit signature count."""
    config = FuzzConfig(seed=0, budget=24, batch=12, horizon=BASE_HORIZON)

    result = benchmark.pedantic(lambda: run_fuzz(config), rounds=1, iterations=1)
    assert result.ok, [v.subject.to_jsonable() for v in result.violations]
    assert result.genomes_run == 24
    assert result.total_signatures >= 10

    table = [
        ["genomes run", result.genomes_run],
        ["distinct signatures", result.total_signatures],
        ["corpus size", result.corpus_size],
        ["violations", len(result.violations)],
        ["engine failures", len(result.failures)],
    ]
    lines = [
        f"FUZZ: coverage-guided sweep (seed 0, base horizon {BASE_HORIZON:g})",
        format_table(["metric", "value"], table),
        "",
        "Paper tie-in: the theorems promise a clean run on EVERY genome the",
        "vocabularies can compose (they all stay inside the AWB assumption),",
        "so coverage growth with zero violations is the reproduction-level",
        "generalisation of the per-scenario `repro check` table.  MATCHES.",
    ]
    emit("FUZZ_coverage_sweep", "\n".join(lines))


def test_fuzz_negative_control(benchmark, tmp_path):
    """The broken-resync canary is caught, shrunk and pinned."""
    corpus_dir = tmp_path / "corpus"
    config = FuzzConfig(seed=0, budget=1, batch=1, horizon=BASE_HORIZON, resync=False)
    probe = amnesia_probe(BASE_HORIZON)

    result = benchmark.pedantic(
        lambda: run_fuzz(config, corpus_dir=corpus_dir, initial=[probe]),
        rounds=1,
        iterations=1,
    )
    assert not result.ok
    violation = result.violations[0]
    assert violation.shrunk is not None and violation.shrunk.complexity() <= 6
    replays = replay_regressions(corpus_dir)
    assert replays and all(count > 0 for _, _, count in replays)

    table = [
        ["oracle violations", violation.violations],
        ["shrunk complexity", violation.shrunk.complexity()],
        ["shrink oracle runs", violation.oracle_runs],
        ["pinned regressions", len(replays)],
        ["replay still red", sum(1 for _, _, c in replays if c > 0)],
    ]
    lines = [
        "FUZZ: negative control (recover-without-resync canary)",
        format_table(["metric", "value"], table),
        "",
        "ABD prediction: one amnesiac replica cannot corrupt a majority",
        "quorum; the violation needs the second crash that forces reads to",
        "count the stale replica -- exactly the two-pair shape the shrinker",
        "preserves while stripping every irrelevant axis.  MATCHES.",
    ]
    emit("FUZZ_negative_control", "\n".join(lines))
