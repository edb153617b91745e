"""The Omega landscape: shared memory vs the two message-passing families.

The paper's introduction situates its shared-memory construction
against message-passing Omega under (a) an eventual t-source [2] and
(b) the time-free message-pattern assumption [21, 23].  This example
runs one representative of each family under its own assumption and
prints the profile the paper describes: everyone stabilizes, but only
the shared-memory algorithm quiets down to a single communicator.

Run:  python examples/related_work_landscape.py
"""

from __future__ import annotations

from repro import Run, WriteEfficientOmega
from repro.analysis.report import format_table
from repro.analysis.write_stats import forever_writers
from repro.netsim.network import EventuallyTimelyLinks, FairLossyLinks
from repro.related import PatternOmega, TSourceOmega, pattern_friendly_links
from repro.sim.rng import RngRegistry
from repro.workloads.scenarios import awb_only


def main() -> None:
    rows = []

    print("1/3 shared-memory AWB (the paper's Algorithm 1, awb-only scenario)...")
    scen = awb_only(n=4)
    shm = scen.run(WriteEfficientOmega, seed=5)
    report = shm.stabilization(margin=scen.margin)
    writers = forever_writers(shm.memory, shm.horizon, window=shm.horizon / 20)
    rows.append(
        [
            "shared-memory AWB (Alg 1)",
            report.holds,
            f"p{report.leader}",
            f"{len(writers)} writer(s)",
            f"{shm.memory.total_writes}w/{shm.memory.total_reads}r",
        ]
    )

    print("2/3 message-passing, eventual t-source [2]...")
    rng = RngRegistry(1)
    ts = Run(
        TSourceOmega,
        n=4,
        seed=1,
        horizon=4000.0,
        channel=EventuallyTimelyLinks(
            FairLossyLinks(rng, loss=0.2), sources={0}, gst=300.0, rng=rng
        ),
    ).execute()
    ts_report = ts.stabilization(margin=200.0)
    rows.append(
        [
            "MP eventual t-source [2]",
            ts_report.holds,
            f"p{ts_report.leader}",
            "all keep sending",
            f"{ts.network.total_sent} msgs ({ts.network.dropped} lost)",
        ]
    )

    print("3/3 message-passing, time-free pattern [21,23]...")
    rng2 = RngRegistry(2)
    pat = Run(
        PatternOmega, n=4, seed=2, horizon=4000.0,
        channel=pattern_friendly_links(rng2, winner=0),
    ).execute()
    pat_report = pat.stabilization(margin=200.0)
    rows.append(
        [
            "MP message pattern [21,23]",
            pat_report.holds,
            f"p{pat_report.leader}",
            "all keep querying",
            f"{pat.network.total_sent} msgs, 0 timers",
        ]
    )

    print()
    print(
        format_table(
            ["construction", "stabilized", "leader", "eventual communicators", "traffic"],
            rows,
        )
    )
    print(
        "\nEach construction runs under its own incomparable assumption; only the"
        "\nshared-memory algorithm converges to a single communicating process"
        "\n(the paper's write-efficiency, Theorem 3)."
    )


if __name__ == "__main__":
    main()
