"""Experiment CMP -- the paper's Section 5 trade-off, head to head.

One table over all five algorithms under a common nominal workload:
convergence, post-stabilization writer count, bounded-memory verdict,
and total shared-memory traffic.  The trade-off the paper proves
inherent (bounded memory <-> everybody writes forever) must be visible
as complementary columns for Algorithm 1 vs Algorithm 2.

Runs through the parallel experiment engine: one worker per CPU and the
JSONL cache under ``results/engine/``, so a re-run of an unchanged grid
is a cache hit.
"""

from __future__ import annotations

from _helpers import RESULTS_DIR, emit

from repro.analysis.report import format_property_table, format_table
from repro.core.algorithm1 import WriteEfficientOmega
from repro.core.algorithm2 import BoundedOmega
from repro.core.baseline import EventuallySynchronousOmega
from repro.core.variants import MultiWriterOmega, StepCounterOmega
from repro.engine import ExperimentSpec, run_experiment
from repro.workloads.scenarios import nominal

ALGORITHMS = {
    "alg1 (Fig 2)": WriteEfficientOmega,
    "alg2 (Fig 5)": BoundedOmega,
    "alg1-nWnR (S3.5)": MultiWriterOmega,
    "alg1-no-timer (S3.5)": StepCounterOmega,
    "baseline [13]-style": EventuallySynchronousOmega,
}
SEEDS = [0, 1, 2]
ENGINE_CACHE = RESULTS_DIR / "engine"


def test_comparison_table(benchmark):
    spec = ExperimentSpec.from_objects(
        "CMP-tradeoff", ALGORITHMS, [nominal(n=4, horizon=9000.0)], SEEDS, window=300.0
    )
    rows = benchmark.pedantic(
        lambda: run_experiment(spec, jobs=None, results_dir=ENGINE_CACHE).rows,
        rounds=1,
        iterations=1,
    )

    by_alg: dict[str, list] = {}
    for row in rows:
        by_alg.setdefault(row.algorithm, []).append(row)

    table = []
    for name, alg_rows in by_alg.items():
        stab_times = [r.stabilization_time for r in alg_rows if r.stabilized]
        table.append(
            [
                name,
                f"{sum(1 for r in alg_rows if r.stabilized)}/{len(alg_rows)}",
                sum(stab_times) / len(stab_times) if stab_times else float("inf"),
                max(r.forever_writer_count for r in alg_rows),
                max(r.growing_register_count for r in alg_rows) == 0,
                sum(r.total_writes for r in alg_rows) // len(alg_rows),
                sum(r.total_reads for r in alg_rows) // len(alg_rows),
            ]
        )

    # The paper's inherent trade-off, as assertions on the table:
    def row_for(prefix):
        return next(r for r in table if r[0].startswith(prefix))

    alg1, alg2 = row_for("alg1 ("), row_for("alg2")
    assert alg1[3] == 1 and not alg1[4]  # one writer, unbounded
    assert alg2[3] == 4 and alg2[4]  # all write, bounded
    assert row_for("baseline")[3] == 4 and not row_for("baseline")[4]  # worst of both

    lines = [
        "Section 5 trade-off: algorithms under the nominal workload (n=4, 3 seeds)",
        format_table(
            [
                "algorithm",
                "stabilized",
                "mean t_stab",
                "forever writers",
                "bounded memory",
                "writes/run",
                "reads/run",
            ],
            table,
        ),
        "",
        "paper prediction: Algorithm 1 = 1 forever-writer + unbounded PROGRESS;",
        "Algorithm 2 = bounded memory + all processes write forever; the",
        "trade-off is inherent (Theorem 5).  The nWnR variant keeps Algorithm 1's",
        "profile with ~1/(n-1) of its leader() read traffic; the baseline pays",
        "both costs.  MATCHES.",
    ]
    emit("CMP_tradeoff_table", "\n".join(lines))

    # Theorem audit: every claimed theorem must hold in every cell.
    # Unclaimed columns render parenthesized -- the baseline's measured
    # (no) marks on T2-T4 are the trade-off table in property form.
    assert sum(r.property_violations for r in rows) == 0
    emit(
        "CMP_theorem_audit",
        "\n".join(
            [
                "Theorem 1-4 audit of the comparison grid (ok = claimed and held;",
                "parenthesized = measured but not claimed under this assumption):",
                format_property_table(rows),
                "",
                "0 violations: claims hold wherever they are made; the baseline's",
                "(no) marks on T2-T4 are the price of the stronger assumption.",
            ]
        ),
    )
