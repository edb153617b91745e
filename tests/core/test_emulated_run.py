"""End-to-end runs on the emulated backend: liveness, theorems, equivalence."""

from __future__ import annotations

import math

import pytest

from repro.core.runner import Run
from repro.memory.emulated import EmulatedMemory
from repro.workloads.registry import ALGORITHMS
from repro.workloads.scenarios import (
    BACKEND_EQUIVALENCE_CELLS,
    Scenario,
    emulated_lossy,
    leader_crash,
    leader_crash_emulated,
    nominal,
    nominal_emulated,
    nominal_emulated_atomic,
    replica_crash,
    replica_crash_atomic,
)


@pytest.mark.parametrize("algo", ["alg1", "alg2", "alg1-nwnr", "alg1-no-timer"])
def test_nominal_emulated_stabilizes_clean(algo):
    """Acceptance: every algorithm stabilizes with zero T1-T4 violations."""
    scen = nominal_emulated(n=4)
    result = scen.run(ALGORITHMS[algo], seed=0)
    assert result.memory_backend == "emulated"
    assert isinstance(result.memory, EmulatedMemory)
    report = result.stabilization(margin=scen.margin)
    assert report.holds and report.leader_correct
    props = result.check_properties(assumption=scen.assumption, margin=scen.margin)
    assert props.violations() == []
    assert result.memory.network.total_sent > 0


@pytest.mark.parametrize("algo", ["alg1", "alg2"])
def test_leader_crash_emulated_reelects_clean(algo):
    scen = leader_crash_emulated(n=4)
    result = scen.run(ALGORITHMS[algo], seed=0)
    report = result.stabilization(margin=scen.margin)
    assert report.holds and report.leader != 0 and report.leader_correct
    props = result.check_properties(assumption=scen.assumption, margin=scen.margin)
    assert props.violations() == []


@pytest.mark.parametrize(
    "algo,shared_factory,emulated_factory,seed",
    BACKEND_EQUIVALENCE_CELLS,
    ids=[f"{a}-{sf.__name__}-s{s}" for a, sf, _, s in BACKEND_EQUIVALENCE_CELLS],
)
def test_backend_equivalence_identical_leaders(algo, shared_factory, emulated_factory, seed):
    """Acceptance: same seed, sync links -> identical elected leaders."""
    cls = ALGORITHMS[algo]
    shared = shared_factory(n=4).run(cls, seed=seed).final_leaders()
    emulated = emulated_factory(n=4).run(cls, seed=seed).final_leaders()
    assert shared == emulated


def test_replica_crash_scenario_survives():
    scen = replica_crash(n=4)
    result = scen.run(ALGORITHMS["alg1"], seed=1)
    assert sum(not r.crashed for r in result.memory.replicas) == 3  # 2 of 5 crashed
    report = result.stabilization(margin=scen.margin)
    assert report.holds and report.leader_correct
    assert result.check_properties(margin=scen.margin).violations() == []


def test_lossy_scenario_retransmits_and_stabilizes():
    scen = emulated_lossy(n=3)
    result = scen.run(ALGORITHMS["alg1"], seed=0)
    assert result.memory.network.dropped > 0
    assert result.memory.retransmissions > 0
    report = result.stabilization(margin=scen.margin)
    assert report.holds and report.leader_correct


def test_emulated_run_blocks_are_intervals():
    """Operation latency is visible: emulated runs fire far more events."""
    shared = Run(ALGORITHMS["alg1"], n=3, seed=0, horizon=500.0).execute()
    emulated = Run(
        ALGORITHMS["alg1"], n=3, seed=0, horizon=500.0, memory="emulated"
    ).execute()
    assert emulated.sim.events_fired > 2 * shared.sim.events_fired
    assert emulated.memory.total_op_latency > 0


def test_run_rejects_emulated_plus_disk():
    from repro.memory.disk import Disk, LatencyModel
    from repro.sim.rng import RngRegistry

    disk = Disk(LatencyModel(RngRegistry(0), lo=1.0, hi=2.0))
    with pytest.raises(ValueError, match="pick one"):
        Run(ALGORITHMS["alg1"], n=3, memory="emulated", disk=disk)


def test_run_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown memory backend"):
        Run(ALGORITHMS["alg1"], n=3, memory="astral")


def test_scenario_override_back_to_shared_drops_emulation_knobs():
    """``repro run --memory shared`` on an emulated scenario must work."""
    scen = nominal_emulated(n=3, horizon=800.0)
    result = scen.run(ALGORITHMS["alg1"], seed=0, memory="shared")
    assert result.memory_backend == "shared"
    assert not isinstance(result.memory, EmulatedMemory)


# ----------------------------------------------------------------------
# Consistency levels: atomic (write-back) runs and the history audit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algo", ["alg1", "alg2"])
def test_nominal_atomic_stabilizes_and_audits_clean(algo):
    """Acceptance: atomic-level runs stabilize with zero T1-T4
    violations AND a linearizable recorded history."""
    scen = nominal_emulated_atomic(n=4)
    result = scen.run(ALGORITHMS[algo], seed=0)
    assert isinstance(result.memory, EmulatedMemory)
    assert result.memory.config.consistency == "atomic"
    assert result.memory.write_backs > 0
    report = result.stabilization(margin=scen.margin)
    assert report.holds and report.leader_correct
    assert result.check_properties(assumption=scen.assumption, margin=scen.margin).violations() == []
    audit = result.audit_consistency()
    assert audit is not None and audit.ok and audit.ops_checked > 0


def test_replica_crash_atomic_audits_clean():
    """Write-backs keep assembling majorities through replica crashes
    and the history stays linearizable."""
    scen = replica_crash_atomic(n=4)
    result = scen.run(ALGORITHMS["alg1"], seed=0)
    assert sum(not r.crashed for r in result.memory.replicas) == 3  # 2 of 5 crashed
    report = result.stabilization(margin=scen.margin)
    assert report.holds and report.leader_correct
    audit = result.audit_consistency()
    assert audit is not None and audit.ok and audit.ops_checked > 0


def test_emulated_lossy_audit_clean_under_retransmission_races():
    """The `repro check` lossy audit cell: dropped quorum messages force
    duplicate REQ/ACK traffic, and no replay or re-ack may manufacture a
    stale read -- the recorded history must stay regular."""
    from repro.workloads.scenarios import emulated_lossy_audit

    scen = emulated_lossy_audit(n=3, horizon=4000.0)
    result = scen.run(ALGORITHMS["alg1"], seed=0)
    assert result.memory.config.record_history is True
    assert result.memory.config.consistency == "regular"
    # The stress is real: the fabric dropped messages and phases retried.
    assert result.memory.network.dropped > 0
    assert result.memory.retransmissions > 0
    audit = result.audit_consistency()
    assert audit is not None and audit.ok and audit.ops_checked > 0


def test_emulated_gst_ramp_audit_clean_under_duplicate_floods():
    """The `repro check` ramp audit cell: pre-GST quorum round trips
    outlast the deliberately tight retry timer, so phases re-broadcast
    into links that deliver everything -- the reply dedup must not
    double-count a replica into a fake quorum, and the recorded history
    must stay regular."""
    from repro.workloads.scenarios import emulated_gst_ramp_audit

    scen = emulated_gst_ramp_audit(n=3, horizon=6000.0)
    result = scen.run(ALGORITHMS["alg1"], seed=0)
    assert result.memory.config.record_history is True
    assert result.memory.config.consistency == "regular"
    # The stress is real: phases retried into non-lossy links, so every
    # retransmission manufactured duplicate REQ/ACK traffic.
    assert result.memory.retransmissions > 0
    audit = result.audit_consistency()
    assert audit is not None and audit.ok and audit.ops_checked > 0


def test_regular_run_passes_the_regularity_audit():
    """The default level really is regular: its history passes the
    regularity check (the atomic check is not promised -- the pinned
    anomaly in repro.memory.anomaly demonstrates the divergence)."""
    result = Run(
        ALGORITHMS["alg1"],
        n=3,
        seed=0,
        horizon=1500.0,
        memory="emulated",
        emulation={"record_history": True},
    ).execute()
    audit = result.audit_consistency()
    assert audit is not None and audit.ok and audit.ops_checked > 0
    assert result.memory.write_backs == 0


def test_audit_none_when_nothing_recorded():
    shared = Run(ALGORITHMS["alg1"], n=3, seed=0, horizon=500.0).execute()
    emulated = Run(
        ALGORITHMS["alg1"], n=3, seed=0, horizon=500.0, memory="emulated"
    ).execute()
    assert shared.audit_consistency() is None
    assert emulated.audit_consistency() is None  # recorder off by default


def test_run_rejects_consistency_on_shared_backend():
    # The override transform drops the level on a shared cell, so no
    # dead configuration reaches Run; Run itself still refuses one.
    assert nominal(n=3).overridden(consistency="atomic").emulation == {}
    with pytest.raises(ValueError, match="backend is 'shared'"):
        Run(ALGORITHMS["alg1"], n=3, emulation={"consistency": "atomic"})
    with pytest.raises(
        ValueError, match=r"unknown consistency level 'causal'; choose from \['regular', 'atomic'\]"
    ):
        nominal_emulated(n=3).overridden(consistency="causal")


def test_run_consistency_param_overrides_emulation_dict():
    scen = Scenario(
        name="hand", n=3, horizon=2000.0, memory="emulated",
        emulation={"consistency": "regular"},
    )
    run = scen.build(ALGORITHMS["alg1"], seed=0, consistency="atomic")
    assert run.memory.config.consistency == "atomic"
    assert scen.emulation == {"consistency": "regular"}  # the transform copies


def test_atomic_scenario_override_back_to_shared_drops_consistency():
    """``repro run --memory shared`` works on the atomic scenarios too."""
    scen = nominal_emulated_atomic(n=3, horizon=800.0)
    result = scen.run(ALGORITHMS["alg1"], seed=0, memory="shared")
    assert result.memory_backend == "shared"


def test_summary_carries_consistency_and_audit_fields():
    scen = nominal_emulated_atomic(n=3, horizon=1500.0)
    row = scen.run(ALGORITHMS["alg1"], seed=0).summarize(
        scenario_name=scen.name, margin=scen.margin, assumption=scen.assumption
    )
    assert row.consistency == "atomic"
    assert row.audit_ok is True and row.audit_ops > 0 and row.audit_violations == 0
    regular = nominal_emulated(n=3, horizon=1500.0)
    row = regular.run(ALGORITHMS["alg1"], seed=0).summarize(
        scenario_name=regular.name, margin=regular.margin, assumption=regular.assumption
    )
    assert row.consistency == "regular"
    assert row.audit_ok is None and row.audit_ops == 0
    shared = nominal(n=3, horizon=800.0)
    row = shared.run(ALGORITHMS["alg1"], seed=0).summarize(
        scenario_name=shared.name, margin=shared.margin, assumption=shared.assumption
    )
    assert row.consistency == "atomic"  # shared registers are atomic
    assert row.audit_ok is None


# ----------------------------------------------------------------------
# Mutating link faults: the negative/positive scenario pair
# ----------------------------------------------------------------------
def test_corruption_links_break_the_theorem_audit():
    """Value corruption is the fault class the emulation does NOT
    tolerate: the Theorem-1 audit must fail (the ROADMAP's
    negative-scenario family)."""
    scen = nominal_emulated(n=4, links="corruption")
    result = scen.run(ALGORITHMS["alg1"], seed=0)
    assert result.memory.network.behavior.corrupted > 0
    props = result.check_properties(assumption=scen.assumption, margin=scen.margin)
    assert any(v.theorem == 1 for v in props.violations())


def test_duplication_links_are_survived():
    """Duplicate deliveries must leave every claim intact."""
    scen = nominal_emulated(n=4, links="duplication")
    result = scen.run(ALGORITHMS["alg1"], seed=0)
    assert result.memory.network.behavior.duplicated > 0
    report = result.stabilization(margin=scen.margin)
    assert report.holds and report.leader_correct
    assert result.check_properties(assumption=scen.assumption, margin=scen.margin).violations() == []


# ----------------------------------------------------------------------
# The end-of-run release
# ----------------------------------------------------------------------
def test_post_run_queries_survive_the_release(monkeypatch):
    """``Run.execute`` releases the run's reference cycles after the final
    sample.  Every question asked of the result afterwards -- ops still
    in flight at the horizon included -- must get the answer an
    unreleased twin of the same cell gives."""
    # At this horizon seed 0 ends with three ops in flight, one of them a
    # write in its write phase (the history's one ``resp = inf`` record).
    scen = nominal_emulated_atomic(n=3, horizon=1000.5)
    released = scen.run(ALGORITHMS["alg1"], seed=0)
    with monkeypatch.context() as patch:
        patch.setattr(Run, "_release", lambda self: None)
        kept = scen.run(ALGORITHMS["alg1"], seed=0)
    assert released.sim.pending() == 0 < kept.sim.pending()

    assert len(released.memory._ops) == 3
    history = released.memory.recorded_history()
    assert [rec.kind for rec in history if rec.resp == math.inf] == ["write"]
    assert history == kept.memory.recorded_history()
    assert released.audit_consistency() == kept.audit_consistency()
    judge = dict(assumption=scen.assumption, margin=scen.margin)
    assert released.check_properties(**judge) == kept.check_properties(**judge)
    assert released.sim.events_fired == kept.sim.events_fired
    assert released.sim.fired_by_kind == kept.sim.fired_by_kind
    rows = [result.summarize(scenario_name=scen.name, **judge).canonical_json() for result in (released, released, kept)]
    assert rows[0] == rows[1] == rows[2]
