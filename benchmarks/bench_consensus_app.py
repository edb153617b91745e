"""Experiment APP -- the Section 1 motivation, end to end.

Omega exists to power consensus and replication [6, 9, 16, 19].  This
bench drives (a) single-shot consensus over both of the paper's Omega
algorithms, (b) a replicated state machine surviving a leader crash,
and (c) the SAN deployment: the same election running against
disk-latency registers, with the produced interval history checked for
linearizability.
"""

from __future__ import annotations

from _helpers import emit

from repro.analysis.report import format_table
from repro.apps.consensus import ConsensusProcess
from repro.apps.smr import ReplicatedStateMachine
from repro.core.algorithm1 import WriteEfficientOmega
from repro.core.algorithm2 import BoundedOmega
from repro.core.runner import Run
from repro.memory.linearizability import check_atomic_history
from repro.sim.crash import CrashPlan
from repro.workloads.scenarios import san


def test_consensus_over_both_omegas(benchmark):
    def run_both():
        out = []
        for omega_cls, horizon in [(WriteEfficientOmega, 1500.0), (BoundedOmega, 3000.0)]:
            result = Run(
                ConsensusProcess,
                n=4,
                seed=100,
                horizon=horizon,
                algo_config={"omega_cls": omega_cls},
            ).execute()
            out.append((omega_cls.display_name, result))
        return out

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    table = []
    for name, result in results:
        decisions = {alg.pid: alg.decision for alg in result.algorithms}
        assert all(d is not None for d in decisions.values())
        assert len(set(decisions.values())) == 1
        latest = max(alg.decided_at for alg in result.algorithms)
        table.append([name, decisions[0], latest])
    lines = [
        "Consensus (single-disk Disk Paxos) driven by each Omega algorithm (n=4):",
        format_table(["omega", "decided value", "all decided by t"], table),
        "paper context: Omega is the weakest failure detector for this task [19];",
        "both algorithms drive the same consensus core to agreement.",
    ]
    emit("APP_consensus", "\n".join(lines))


def test_smr_throughput_across_leader_crash(benchmark):
    commands = [f"cmd{i}" for i in range(6)]

    def run():
        return Run(
            ReplicatedStateMachine,
            n=3,
            seed=111,
            horizon=12000.0,
            crash_plan=CrashPlan.single(3, 0, 500.0),
            algo_config={"commands": commands},
        ).execute()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    survivor = result.algorithms[1]
    assert len(survivor.log) == len(commands)
    assert survivor.log == result.algorithms[2].log
    table = [
        [slot, cmd, proposer, f"{t:.0f}"]
        for (slot, t), (cmd, proposer) in zip(survivor.decide_times, survivor.log)
    ]
    lines = [
        "Replicated state machine, leader crash at t=500 (n=3):",
        format_table(["slot", "command", "proposer", "decided at"], table),
        "shape: early slots proposed by pid 0; after its crash a survivor",
        "takes over and the log completes -- identical at all correct replicas.",
    ]
    emit("APP_smr_leader_crash", "\n".join(lines))


def test_disk_paxos_minority_failures(benchmark):
    """Multi-disk Disk Paxos [9]: consensus survives any minority of
    disk crashes plus a process crash -- the SAN redundancy story."""
    from repro.apps.disk_paxos import DiskPaxosProcess

    def run():
        return Run(
            DiskPaxosProcess,
            n=4,
            seed=134,
            horizon=6000.0,
            crash_plan=CrashPlan.single(4, 0, 300.0),
            algo_config={"num_disks": 3, "disk_crash_times": {2: 400.0}},
        ).execute()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    decided = {
        alg.pid: alg.decision
        for alg in result.algorithms
        if result.crash_plan.is_correct(alg.pid)
    }
    assert all(d is not None for d in decided.values())
    assert len(set(decided.values())) == 1
    table = [[pid, value] for pid, value in sorted(decided.items())]
    lines = [
        "Disk Paxos over 3 disks; disk 2 crashes at t=400, process 0 at t=300:",
        format_table(["pid", "decision"], table),
        "paper context: the SAN architecture tolerates disk failures via",
        "majority quorums [9]; agreement holds despite one disk and one",
        "process failing.",
    ]
    emit("APP_disk_paxos", "\n".join(lines))


def test_san_deployment_linearizable(benchmark):
    scen = san(n=3)

    def run():
        return scen.run(WriteEfficientOmega, seed=7)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    report = result.stabilization(margin=scen.margin)
    assert report.holds and report.leader_correct
    lin = check_atomic_history(result.disk.history)
    assert lin.ok, lin.summary()
    lines = [
        "SAN deployment: Algorithm 1 over network-attached-disk registers",
        f"(latency 1..4 per access): stabilized={report.holds} "
        f"leader={report.leader} t={report.settle_time:.0f}",
        lin.summary(),
        "paper context (Section 1): commodity-disk shared memory is the target",
        "deployment; the interval history the run produced is atomic-register",
        "consistent.",
    ]
    emit("APP_san_linearizable", "\n".join(lines))
