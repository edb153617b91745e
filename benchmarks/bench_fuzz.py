"""Experiments FUZZ -- coverage-guided scenario fuzzing as a workload.

The fuzzer (:mod:`repro.fuzz`) walks the scenario space one axis
mutation at a time, keeping genomes whose runs land in novel
trace-feature signatures.  ``FUZZ_coverage_sweep`` prices it: a
fixed-seed budget through the parallel engine -- how many distinct
behaviour signatures a modest corpus reaches, at what wall-clock cost,
with the clean-tree bar (zero violations) asserted on the way.  That the
oracles catch a broken emulation is the protocol-mutant harness's job
(``python -m tests.mutants``), not a paper-claim experiment's.
"""

from __future__ import annotations

from _helpers import emit

from repro.analysis.report import format_table
from repro.fuzz.loop import FuzzConfig, run_fuzz

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

