"""SAN deployment: leader election over network-attached disks.

The paper's Section 1 motivates shared-memory Omega with storage-area
networks: "commodity disks are cheaper than computers".  This example
runs Algorithm 1 with every register access going through a simulated
disk (latency, interval semantics), verifies the produced operation
history is linearizable, and compares election latency against the
in-memory run.

Run:  python examples/san_storage_leader.py
"""

from __future__ import annotations

from repro import Run, WriteEfficientOmega
from repro.analysis.report import format_table
from repro.memory.disk import Disk, LatencyModel
from repro.memory.linearizability import check_atomic_history
from repro.sim.rng import RngRegistry
from repro.workloads.scenarios import san


def main() -> None:
    print("Leader election over a storage-area network (simulated disks)\n")

    # --- in-memory control run -----------------------------------------
    control = Run(WriteEfficientOmega, n=3, seed=7, horizon=2000.0).execute()
    control_report = control.stabilization(margin=100.0)

    # --- the SAN run -----------------------------------------------------
    scen = san(n=3)
    result = scen.run(WriteEfficientOmega, seed=7)
    report = result.stabilization(margin=scen.margin)

    print(
        format_table(
            ["deployment", "stabilized", "leader", "t_stabilize", "writes", "reads"],
            [
                [
                    "in-memory",
                    control_report.holds,
                    control_report.leader,
                    control_report.settle_time,
                    control.memory.total_writes,
                    control.memory.total_reads,
                ],
                [
                    "SAN (latency 1..4)",
                    report.holds,
                    report.leader,
                    report.settle_time,
                    result.memory.total_writes,
                    result.memory.total_reads,
                ],
            ],
        )
    )

    # --- atomicity of the disk history -----------------------------------
    lin = check_atomic_history(result.disk.history)
    print(f"\ndisk operation history: {lin.summary()}")
    ops = result.disk.history
    mean_latency = sum(op.resp - op.inv for op in ops) / len(ops)
    print(f"disk ops: {len(ops)}, mean access latency: {mean_latency:.2f} time units")
    print(
        "\nThe same algorithm code runs in both deployments; only the register"
        "\nsubstrate changed -- exactly the portability the paper's 1WnR model buys."
    )


if __name__ == "__main__":
    main()
