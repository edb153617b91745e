"""Experiment RW -- the Section 1 related-work landscape, executed.

The paper positions its AWB assumption against the two message-passing
families.  This bench runs all three under their *own* assumptions and
tabulates the profile the paper's prose describes:

* shared-memory AWB (Algorithm 1): one timely process's *writes*; after
  stabilization a single process writes, one register unbounded;
* message-passing eventual t-source ([2]-style): one process's
  *outgoing links* timely; every process sends heartbeats forever;
* message-passing pattern ([21, 23]-style): no timing at all, only a
  winning-responses order property; every process queries forever.

The assumptions are pairwise incomparable (the paper stresses t-source
vs pattern are; AWB lives in a different model altogether), so the
table is a qualitative map, not a race.
"""

from __future__ import annotations

from _helpers import emit

from repro.analysis.report import format_table
from repro.analysis.write_stats import forever_writers
from repro.core.algorithm1 import WriteEfficientOmega
from repro.core.runner import Run
from repro.netsim.network import EventuallyTimelyLinks, FairLossyLinks
from repro.related.omega_pattern import PatternOmega, pattern_friendly_links
from repro.related.omega_tsource import TSourceOmega
from repro.sim.rng import RngRegistry
from repro.workloads.scenarios import awb_only


def test_related_work_landscape(benchmark):
    def run_all():
        shm_scen = awb_only(n=4)
        shm = shm_scen.run(WriteEfficientOmega, seed=5)

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

        rng2 = RngRegistry(2)
        pat = Run(
            PatternOmega,
            n=4,
            seed=2,
            horizon=4000.0,
            channel=pattern_friendly_links(rng2, winner=0),
        ).execute()
        return shm_scen, shm, ts, pat

    shm_scen, shm, ts, pat = benchmark.pedantic(run_all, rounds=1, iterations=1)

    shm_report = shm.stabilization(margin=shm_scen.margin)
    ts_report = ts.stabilization(margin=200.0)
    pat_report = pat.stabilization(margin=200.0)
    assert shm_report.holds and ts_report.holds and pat_report.holds

    shm_writers = forever_writers(shm.memory, shm.horizon, window=shm.horizon / 20)
    assert len(shm_writers) == 1
    # Message-passing algorithms keep everyone talking forever.
    assert set(ts.network.sent_by_pid) == set(range(4))
    assert set(pat.network.sent_by_pid) == set(range(4))

    rows = [
        [
            "shared-memory AWB (this paper, Alg 1)",
            "1 process's writes timely + AWB timers",
            shm_report.holds,
            len(shm_writers),
            f"{shm.memory.total_writes} writes / {shm.memory.total_reads} reads",
        ],
        [
            "MP eventual t-source [2]",
            "1 process's outgoing links timely; fair-lossy",
            ts_report.holds,
            4,
            f"{ts.network.total_sent} msgs ({ts.network.dropped} dropped)",
        ],
        [
            "MP message pattern [21,23]",
            "winning-responses order; NO timing, NO timers",
            pat_report.holds,
            4,
            f"{pat.network.total_sent} msgs",
        ],
    ]
    lines = [
        "Related-work landscape: three Omega constructions, each under its own assumption (n=4)",
        format_table(
            ["construction", "assumption", "stabilized", "eventual communicators", "traffic"],
            rows,
        ),
        "",
        "shape: only the shared-memory AWB algorithm converges to a single",
        "communicating process (Theorem 3's write-efficiency has no",
        "message-passing analogue here: heartbeats and queries never stop);",
        "the pattern approach uses no timers at all (time-free), matching the",
        "paper's description of the two families.  MATCHES the qualitative",
        "claims of Section 1.",
    ]
    emit("RW_landscape", "\n".join(lines))
