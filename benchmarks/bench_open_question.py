"""Experiment OQ -- the paper's open question, probed empirically.

Section 5 asks whether an algorithm can exist in which, after some
time, the eventual leader no longer *reads* the shared memory
(Algorithm 1 is only quasi-optimal on reads: everyone reads
``SUSPICIONS`` forever).  We run the natural candidate -- a leader that
stops reading once confident (:class:`LazyLeaderOmega`) -- and measure
both sides of the coin:

* the prize: under stable conditions the leader's read traffic really
  drops to zero and the election is unaffected;
* the price: a legal asynchrony burst after the leader went lazy
  demotes it at the followers, and, reading nothing, it can never
  learn -- Eventual Leadership breaks permanently, while plain
  Algorithm 1 under the identical schedule recovers.

Conclusion recorded in EXPERIMENTS.md: the naive approach does not
settle the open question positively.
"""

from __future__ import annotations

from _helpers import emit

from repro.analysis.report import format_table
from repro.core.algorithm1 import WriteEfficientOmega
from repro.core.exploration import LazyLeaderOmega
from repro.core.runner import Run
from repro.sim.rng import RngRegistry
from repro.sim.schedulers import AdversarialStallDelay, StallWindow, UniformDelay

HORIZON = 3000.0


def stall_model(seed: int):
    rng = RngRegistry(seed)
    return AdversarialStallDelay(UniformDelay(rng, 0.5, 1.5), [StallWindow(0, 1200.0, 2000.0)])


def test_open_question_lazy_leader(benchmark):
    def run_all():
        stable = Run(LazyLeaderOmega, n=4, seed=140, horizon=HORIZON).execute()
        disturbed = Run(
            LazyLeaderOmega, n=4, seed=141, horizon=HORIZON, delay_model=stall_model(141)
        ).execute()
        control = Run(
            WriteEfficientOmega, n=4, seed=141, horizon=HORIZON, delay_model=stall_model(141)
        ).execute()
        return stable, disturbed, control

    stable, disturbed, control = benchmark.pedantic(run_all, rounds=1, iterations=1)

    # The prize under stable conditions.
    stable_report = stable.stabilization(margin=200.0)
    assert stable_report.holds
    leader = stable_report.leader
    leader_tail_reads = len(
        [r for r in stable.memory.reads_in(HORIZON * 0.7, HORIZON) if r.pid == leader]
    )
    assert leader_tail_reads == 0

    # The price under disturbance; the control recovers.
    disturbed_report = disturbed.stabilization(margin=200.0)
    control_report = control.stabilization(margin=200.0)
    assert not disturbed_report.holds
    assert control_report.holds

    rows = [
        [
            "lazy, stable env",
            stable_report.holds,
            f"p{leader}",
            leader_tail_reads,
        ],
        [
            "lazy, stall burst",
            disturbed_report.holds,
            "split: p0 vs others",
            0,
        ],
        [
            "plain alg1, stall burst",
            control_report.holds,
            f"p{control_report.leader}",
            "(reads forever)",
        ],
    ]
    lines = [
        "Open question (Section 5): can the leader eventually stop reading?",
        format_table(
            ["configuration", "eventual leadership", "final leader(s)", "leader tail reads"],
            rows,
        ),
        "",
        "finding: a confidence-based non-reading leader achieves zero read",
        "traffic while nothing changes, but a legal post-stabilization stall",
        "demotes it and -- reading nothing -- it can never learn; the identical",
        "schedule is absorbed by the always-reading Algorithm 1.  The naive",
        "answer to the open question is NO; any positive answer needs a",
        "mechanism that re-informs the leader, i.e. some form of read.",
    ]
    emit("OQ_lazy_leader", "\n".join(lines))
