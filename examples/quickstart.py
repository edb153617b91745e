"""Quickstart: elect an eventual leader in simulated shared memory.

Runs the paper's write-efficient algorithm (Figure 2) on four
processes, crashes the elected leader mid-run, and shows the oracle
re-electing a correct process -- the core Omega behaviour.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import CrashPlan, Run, WriteEfficientOmega
from repro.analysis.report import format_table
from repro.analysis.write_stats import forever_writers, growing_registers


def main() -> None:
    n, horizon = 4, 3000.0
    print(f"Electing an eventual leader among {n} processes (horizon {horizon:.0f})")
    print("Crash plan: pid 0 (the initial favourite) crashes at t=1000\n")

    result = Run(
        WriteEfficientOmega,
        n=n,
        seed=7,
        horizon=horizon,
        crash_plan=CrashPlan.single(n, 0, 1000.0),
    ).execute()

    # --- the election timeline, as each process saw it -----------------
    print("leader() outputs over time (sampled):")
    rows = []
    for t in (0.0, 500.0, 1500.0, horizon):
        sample = {pid: ld for when, pid, ld in result.trace.leader_samples() if when <= t}
        rows.append([f"t={t:.0f}"] + [sample.get(pid, "-") for pid in range(n)])
    print(format_table(["time"] + [f"p{i}" for i in range(n)], rows))

    # --- the eventual-leadership verdict --------------------------------
    report = result.stabilization(margin=200.0)
    print(f"\nstabilized: {report.holds}")
    print(f"elected leader: p{report.leader} (correct: {report.leader_correct})")
    print(f"stabilization time: {report.settle_time:.0f}")

    # --- the paper's signature properties --------------------------------
    writers = forever_writers(result.memory, horizon, window=300.0)
    growing = growing_registers(result.memory, horizon)
    print(f"\nprocesses still writing at the end (Theorem 3): {sorted(writers)}")
    print(f"registers still growing (Theorem 2): {sorted(growing)}")
    print(
        f"shared-memory traffic: {result.memory.total_writes} writes, "
        f"{result.memory.total_reads} reads"
    )


if __name__ == "__main__":
    main()
