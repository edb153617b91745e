"""Value-integrity cross-check: quorum certificates carry values.

The ROADMAP's carried-over gap: the history audit compared *timestamps*
only, so a corrupted value travelling under a valid timestamp passed
every audit rule while breaking Theorem 1.  Two mechanisms close it:

* write-acks echo the value the replica received, and the writer counts
  mismatches (``EmulatedMemory.integrity_violations``);
* the interval checkers gain a ``value-corruption`` rule comparing each
  read's returned value against the recorded write of the same
  timestamp.
"""

from __future__ import annotations

from dataclasses import replace

from repro.memory.linearizability import OpRecord, check_atomic_history, check_regular_history
from repro.netsim.network import PartitionScheduleLinks
from repro.workloads.registry import ALGORITHMS
from repro.workloads.scenarios import fuzz_cell, nominal_emulated

#: One 100-unit partition of replica 0, and one 100-unit storm.
_PARTITION = [
    {"kind": "partition", "at": 100.0, "replicas": [0]},
    {"kind": "heal", "at": 200.0, "replicas": [0]},
]
_STORM = [{"kind": "message-storm", "at": 100.0, "until": 200.0, "factor": 2.0}]


def _rec(kind, ts, inv, resp, value, pid=0, reg="R"):
    return OpRecord(
        op_id=0, kind=kind, pid=pid, register=reg, ts=ts, value=value, inv=inv, resp=resp
    )


class TestCheckerValueRule:
    def test_value_mismatch_at_matching_timestamp_is_flagged(self):
        history = [
            _rec("write", (1, 0), 0.0, 1.0, value=7),
            _rec("read", (1, 0), 2.0, 3.0, value=8, pid=1),
        ]
        report = check_regular_history(history)
        assert not report.ok
        assert [v.rule for v in report.violations] == ["value-corruption"]
        assert "returned value 8" in report.violations[0].detail

    def test_matching_value_passes(self):
        history = [
            _rec("write", (1, 0), 0.0, 1.0, value=7),
            _rec("read", (1, 0), 2.0, 3.0, value=7, pid=1),
        ]
        assert check_regular_history(history).ok
        assert check_atomic_history(history).ok

    def test_the_timestamp_only_rules_alone_miss_the_corruption(self):
        """The exact hole being closed: a valid-timestamp read with a
        mutated value trips no other rule."""
        history = [
            _rec("write", (1, 0), 0.0, 1.0, value=7),
            _rec("read", (1, 0), 2.0, 3.0, value=999, pid=1),
        ]
        report = check_atomic_history(history)
        assert {v.rule for v in report.violations} == {"value-corruption"}

    def test_initial_value_reads_are_not_cross_checked(self):
        # Timestamp (0, -1) has no recorded write; the read returns the
        # register's initial value, which the recorder cannot name.
        history = [_rec("read", (0, -1), 0.0, 1.0, value=0)]
        assert check_regular_history(history).ok


class TestEndToEndDetection:
    def test_corrupting_links_trip_the_ack_cross_check(self):
        scen = nominal_emulated(n=4, links="corruption")
        result = scen.run(ALGORITHMS["alg1"], seed=0)
        assert result.memory.network.behavior.corrupted > 0
        assert result.memory.integrity_violations > 0

    def test_corrupting_links_fail_the_audit_via_the_value_rule_only(self):
        """Pin the division of labour: corruption never touches the
        timestamps (the trailing payload element is the value), so every
        audit violation comes from the value cross-check."""
        base = nominal_emulated(n=4, links="corruption")
        scen = replace(base, emulation={**base.emulation, "record_history": True})
        result = scen.run(ALGORITHMS["alg1"], seed=0)
        audit = result.audit_consistency()
        assert audit is not None and not audit.ok
        assert {v.rule for v in audit.violations} == {"value-corruption"}

    def test_clean_fabric_has_zero_integrity_violations(self):
        base = nominal_emulated(n=4)
        scen = replace(base, emulation={**base.emulation, "record_history": True})
        result = scen.run(ALGORITHMS["alg1"], seed=0)
        assert result.memory.integrity_violations == 0
        audit = result.audit_consistency()
        assert audit is not None and audit.ok

    def test_a_fault_plan_keeps_corrupting_links_corrupting(self):
        """A partition window wraps the links in the fault overlay; the
        overlay must not strip the corruption for the whole run."""
        scen = fuzz_cell(backend="emulated", horizon=1500.0, links="corruption", plan=_PARTITION)
        result = scen.run(ALGORITHMS["alg1"], seed=0)
        overlay = result.memory.network.behavior
        assert isinstance(overlay, PartitionScheduleLinks) and overlay.partitioned_drops > 0
        assert overlay.base.corrupted > 0
        assert result.memory.integrity_violations > 0
        assert not result.audit_consistency().ok

    def test_a_fault_plan_keeps_duplicating_links_duplicating(self):
        scen = fuzz_cell(backend="emulated", horizon=1500.0, links="duplication", plan=_STORM)
        result = scen.run(ALGORITHMS["alg1"], seed=0)
        network = result.memory.network
        assert network.behavior.base.duplicated > 0
        assert network.delivered > network.total_sent
        assert result.memory.integrity_violations == 0

    def test_duplication_links_stay_integrity_clean(self):
        """Duplicate deliveries replay identical payloads: the
        cross-check must not misread them as corruption."""
        scen = nominal_emulated(n=4, links="duplication")
        result = scen.run(ALGORITHMS["alg1"], seed=0)
        assert result.memory.network.behavior.duplicated > 0
        assert result.memory.integrity_violations == 0
