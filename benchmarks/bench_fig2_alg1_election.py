"""Experiments F2/T1-T3 -- paper Figure 2 + Theorems 1, 2, 3.

Algorithm 1 under the nominal and leader-crash workloads:

* Theorem 1 -- a correct common leader is eventually elected
  (convergence-time distribution over seeds);
* Theorem 2 -- all shared variables bounded except ``PROGRESS[ell]``;
* Theorem 3 -- after a finite time a single process writes, always the
  same register.
"""

from __future__ import annotations

import statistics

from _helpers import emit

from repro.analysis.report import format_table
from repro.analysis.write_stats import (
    growing_registers,
    single_writer_point,
    tail_written_registers,
)
from repro.core.algorithm1 import WriteEfficientOmega
from repro.workloads.scenarios import leader_crash, nominal

SEEDS = list(range(6))


def run_nominal_batch():
    scen = nominal(n=4, horizon=2500.0)
    return scen, [scen.run(WriteEfficientOmega, seed=s) for s in SEEDS]


def test_fig2_alg1_nominal(benchmark):
    scen, results = benchmark.pedantic(run_nominal_batch, rounds=1, iterations=1)

    rows = []
    stab_times = []
    for result in results:
        report = result.stabilization(margin=scen.margin)
        assert report.holds and report.leader_correct  # Theorem 1
        stab_times.append(report.settle_time)

        growing = growing_registers(result.memory, result.horizon)
        assert growing == frozenset({f"PROGRESS[{report.leader}]"})  # Theorem 2

        point = single_writer_point(result.memory, result.horizon, tail=300.0)
        assert point.reached and point.writer == report.leader  # Theorem 3
        tail_regs = tail_written_registers(result.memory, result.horizon, tail=300.0)
        assert tail_regs == frozenset({f"PROGRESS[{report.leader}]"})

        row = result.summarize(
            scenario_name=scen.name,
            margin=scen.margin,
            window=200.0,
            assumption=scen.assumption,
        )
        rows.append(
            [
                result.seed,
                report.leader,
                report.settle_time,
                point.time,
                sorted(growing),
                row.total_writes,
                row.total_reads,
            ]
        )

    lines = [
        "Figure 2 / Theorems 1-3: Algorithm 1, nominal workload (n=4)",
        format_table(
            ["seed", "leader", "t_stabilize", "t_single_writer", "unbounded regs", "writes", "reads"],
            rows,
        ),
        "",
        f"convergence time: median={statistics.median(stab_times):.0f} "
        f"min={min(stab_times):.0f} max={max(stab_times):.0f} (virtual time units)",
        "paper prediction: stabilization in finite time; exactly one unbounded",
        "register (PROGRESS[leader]); exactly one eventual writer.  MATCHES.",
    ]
    emit("F2_alg1_nominal", "\n".join(lines))


def test_fig2_alg1_leader_crash(benchmark):
    scen = leader_crash(n=4, horizon=6000.0)

    def run_batch():
        return [scen.run(WriteEfficientOmega, seed=s) for s in SEEDS[:4]]

    results = benchmark.pedantic(run_batch, rounds=1, iterations=1)
    rows = []
    for result in results:
        report = result.stabilization(margin=scen.margin)
        assert report.holds and report.leader != 0  # re-election
        rows.append([result.seed, report.leader, report.settle_time])
    lines = [
        "Theorem 1 under leader crash (pid 0 crashes at t=2100):",
        format_table(["seed", "new leader", "t_stabilize"], rows),
        "paper prediction: a correct process is (re-)elected.  MATCHES.",
    ]
    emit("F2_alg1_leader_crash", "\n".join(lines))
