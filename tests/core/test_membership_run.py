"""End-to-end dynamic membership: the churn battery.

The hard interleavings the two-config transition window must survive,
each pinned as its own cell and each asserting the full oracle stack --
stabilization, zero T1-T4 violations, and a clean history audit:

* a write in flight across a config change (operations complete inside
  the dual-quorum window);
* a reconfiguration while a minority of the old config is crashed;
* retiring the lead replica while links are still on a GST ramp;
* back-to-back reconfigurations (transitions queue, one at a time);
* a reconfiguration racing a crash-recovery amnesia resync.

Plus the negative control (``single-config`` transition mode must go
red under the history audit while the matched dual-quorum run stays
clean) and the backend-equivalence satellite: a no-op membership plan
changes nothing, byte for byte, under both ``REPRO_KERNEL`` variants.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.runner import Run
from repro.memory.emulated import EmulatedMemory
from repro.workloads.registry import ALGORITHMS
from repro.workloads.scenarios import (
    MEMBERSHIP_CANARY_CRASHES,
    MEMBERSHIP_CANARY_PLAN,
    Scenario,
    emulated_gst_ramp_audit,
    membership_canary,
    membership_churn,
    membership_churn_atomic,
)

REPO = Path(__file__).resolve().parents[2]


def assert_clean(result, scen) -> None:
    """The full membership oracle stack: liveness, theorems, audit."""
    report = result.stabilization(margin=scen.margin)
    assert report.stabilized and report.leader_correct
    props = result.check_properties(assumption=scen.assumption, margin=scen.margin)
    assert props.violations() == []
    audit = result.audit_consistency()
    assert audit is not None and audit.ok and audit.ops_checked > 0


# ----------------------------------------------------------------------
# The churn battery: hard interleavings, all clean under dual-quorum
# ----------------------------------------------------------------------
class TestChurnBattery:
    @pytest.mark.parametrize("algo", ["alg1", "alg2"])
    def test_write_in_flight_across_config_change(self, algo):
        """Transfer windows stay open long enough that quorum phases
        start in one config and finish under the dual predicate: the
        dual_quorum_ops census must be non-zero and every such
        operation must still read/write safely."""
        scen = membership_churn(n=3, horizon=8000.0, transfer_delay=400.0)
        result = scen.run(ALGORITHMS[algo], seed=0)
        assert isinstance(result.memory, EmulatedMemory)
        assert result.memory.configs_installed == 2
        assert result.memory.transfer_rounds == 2
        assert result.memory.dual_quorum_ops > 0
        assert_clean(result, scen)

    def test_reconfigure_with_minority_crashed(self):
        """A crashed minority of the OLD config must not block the
        transition: dual quorums assemble from the live majority of
        both configs and the install still lands."""
        scen = membership_churn(n=3, horizon=8000.0, crash_times={"1": 1000.0})
        result = scen.run(ALGORITHMS["alg1"], seed=0)
        assert result.memory.configs_installed == 2
        assert result.memory.transfer_rounds == 2
        assert_clean(result, scen)

    def test_leave_the_lead_replica_under_gst_ramp(self):
        """Retiring replica 0 while links are still ramping toward GST:
        the transition's transfer round itself rides slow links, so the
        window stays open across stretched quorum round trips."""
        scen = emulated_gst_ramp_audit(n=4, horizon=10000.0)
        scen.name = "membership-leave-under-ramp"
        scen.emulation = {
            **scen.emulation,
            "membership_plan": [{"kind": "leave", "at": 2000.0, "replica": 0}],
        }
        result = scen.run(ALGORITHMS["alg1"], seed=0)
        assert result.memory.configs_installed == 1
        assert result.memory.transfer_rounds == 1
        # The ramp stress is real: retries flooded duplicate traffic.
        assert result.memory.retransmissions > 0
        # Replica 0 is retired once the new config installs.
        assert result.memory.next_config is None
        assert 0 not in result.memory.current_config.members
        assert_clean(result, scen)

    def test_back_to_back_reconfigurations_queue(self):
        """Three events inside one transfer window: transitions must
        queue and run one at a time, installing every config."""
        plan = [
            {"kind": "join", "at": 1000.0, "replica": 3},
            {"kind": "join", "at": 1040.0, "replica": 4},
            {"kind": "leave", "at": 1080.0, "replica": 0},
        ]
        scen = membership_churn(n=3, horizon=8000.0, plan=plan, transfer_delay=300.0)
        result = scen.run(ALGORITHMS["alg1"], seed=0)
        assert result.memory.configs_installed == 3
        assert result.memory.transfer_rounds == 3
        assert result.memory.next_config is None
        assert result.memory.current_config.members == (1, 2, 3, 4)
        assert_clean(result, scen)

    def test_reconfiguration_races_amnesia_resync(self):
        """A replica crash-recovers (losing its store) while the churn
        plan is mid-transition: the recovery resync and the membership
        state transfer overlap, and neither may manufacture a stale
        read."""
        scen = membership_churn(n=3, horizon=8000.0)
        scen.name = "membership-vs-amnesia"
        scen.emulation = {
            **scen.emulation,
            "fault_plan": [
                {"kind": "replica-crash", "at": 2000.0, "replica": 1},
                {"kind": "replica-recover", "at": 2600.0, "replica": 1},
            ],
        }
        result = scen.run(ALGORITHMS["alg1"], seed=0)
        assert result.memory.recoveries > 0
        assert result.memory.resyncs > 0
        assert result.memory.configs_installed == 2
        assert_clean(result, scen)

    def test_atomic_churn_audits_linearizable(self):
        """The hardest cell: atomic write-backs must assemble dual
        majorities across both transitions and the recorded history
        must be linearizable, not merely regular."""
        scen = membership_churn_atomic(n=3, horizon=10000.0)
        result = scen.run(ALGORITHMS["alg1"], seed=0)
        assert result.memory.config.consistency == "atomic"
        assert result.memory.write_backs > 0
        assert result.memory.configs_installed == 2
        assert_clean(result, scen)

    def test_summary_carries_the_reconfiguration_counters(self):
        scen = membership_churn(n=3, horizon=8000.0)
        row = scen.run(ALGORITHMS["alg1"], seed=0).summarize(
            scenario_name=scen.name, margin=scen.margin, assumption=scen.assumption
        )
        assert row.configs_installed == 2
        assert row.transfer_rounds == 2
        assert row.dual_quorum_ops >= 0
        assert row.audit_ok is True and row.audit_violations == 0


# ----------------------------------------------------------------------
# The negative control: single-config mode must go red
# ----------------------------------------------------------------------
class TestNegativeControl:
    def test_single_config_canary_fails_the_history_audit(self):
        """Full config turnover then the last original member crashes:
        with old-config-only quorums and no state transfer the joiners
        serve stale values and the audit must catch it."""
        scen = membership_canary()  # transition="single-config" default
        result = scen.run(ALGORITHMS["alg1"], seed=0)
        audit = result.audit_consistency()
        assert audit is not None and not audit.ok
        assert len(audit.violations) > 0
        # The broken mode is visible in the counters too: configs
        # install (trivially) but no transfer round ever runs.
        assert result.memory.configs_installed == 4
        assert result.memory.transfer_rounds == 0
        assert result.memory.dual_quorum_ops == 0

    def test_dual_quorum_twin_of_the_canary_stays_clean(self):
        """The matched positive control: the same plan, crash and seed
        under dual-quorum windows audits clean -- so the red verdict
        above is the transition mode's fault and nothing else's."""
        scen = membership_canary(transition="dual-quorum")
        result = scen.run(ALGORITHMS["alg1"], seed=0)
        audit = result.audit_consistency()
        assert audit is not None and audit.ok and audit.ops_checked > 0
        assert result.memory.configs_installed == 4
        assert result.memory.transfer_rounds == 4
        assert result.memory.dual_quorum_ops > 0

    def test_canary_construction_is_pinned(self):
        """CI replays the canary by name; its construction must not
        drift silently."""
        assert [ev["kind"] for ev in MEMBERSHIP_CANARY_PLAN] == [
            "join", "join", "leave", "leave",
        ]
        assert [ev["replica"] for ev in MEMBERSHIP_CANARY_PLAN] == [3, 4, 0, 1]
        assert MEMBERSHIP_CANARY_CRASHES == {"2": 2500.0}


# ----------------------------------------------------------------------
# Membership overrides (the spec/CLI axis, through Scenario.overridden)
# ----------------------------------------------------------------------
def _bare(memory="emulated", **emulation):
    """A hand-built scenario: Run's own defaults for every part."""
    return Scenario(name="bare", n=3, horizon=4000.0, memory=memory, emulation=emulation)


class TestMembershipOverride:
    def test_churn_override_installs_the_canonical_plan(self):
        result = _bare().run(ALGORITHMS["alg1"], seed=0, membership="churn")
        assert result.memory.configs_installed == 2
        assert result.memory.transfer_rounds == 2

    def test_none_override_strips_an_existing_plan(self):
        scen = _bare(membership_plan=[{"kind": "leave", "at": 500.0, "replica": 0}])
        result = scen.run(ALGORITHMS["alg1"], seed=0, membership="none")
        assert result.memory.config.membership_plan == ()
        assert result.memory.configs_installed == 0

    def test_membership_rejected_on_shared_backend(self):
        # The override transform drops the mode on a shared cell, so no
        # dead configuration reaches Run; Run itself still refuses one.
        shared = _bare(memory="shared").overridden(membership="churn")
        assert shared.memory == "shared" and shared.emulation == {}
        assert _bare().overridden(memory="shared", membership="churn").emulation == {}
        with pytest.raises(ValueError, match="backend is 'shared'"):
            Run(ALGORITHMS["alg1"], n=3, emulation={"membership_plan": []})

    def test_unknown_membership_mode_rejected(self):
        with pytest.raises(
            ValueError, match=r"unknown membership mode 'rolling'; choose from \['none', 'churn'\]"
        ):
            _bare().overridden(membership="rolling")


# ----------------------------------------------------------------------
# Backend equivalence: a no-op plan changes nothing, on either kernel
# ----------------------------------------------------------------------
EQUIVALENCE_PROBE = (
    "from repro.workloads.registry import ALGORITHMS\n"
    "from repro.workloads.scenarios import Scenario\n"
    "scen = Scenario(name='equiv', n=3, horizon=2000.0, memory='emulated',\n"
    "                emulation={'record_history': True})\n"
    "plain = scen.run(ALGORITHMS['alg1'], seed=0).summarize(\n"
    "    scenario_name='equiv', margin=100.0)\n"
    "noop = scen.run(ALGORITHMS['alg1'], seed=0, membership='none').summarize(\n"
    "    scenario_name='equiv', margin=100.0)\n"
    "assert plain.canonical_json() == noop.canonical_json()\n"
    "print(plain.canonical_json())\n"
)


class TestBackendEquivalence:
    def test_noop_plan_is_byte_identical_in_process(self):
        scen = Scenario(name="equiv", n=3, horizon=2000.0, memory="emulated",
                        emulation={"record_history": True})
        plain = scen.run(ALGORITHMS["alg1"], seed=0).summarize(
            scenario_name="equiv", margin=100.0
        )
        noop = scen.run(ALGORITHMS["alg1"], seed=0, membership="none").summarize(
            scenario_name="equiv", margin=100.0
        )
        assert plain.canonical_json() == noop.canonical_json()
        assert plain.configs_installed == 0 and noop.configs_installed == 0

    def test_noop_plan_agrees_across_kernel_variants(self):
        """REPRO_KERNEL=python and =compiled: the probe asserts the
        no-op-plan equivalence inside each variant and the two variants'
        canonical summaries must match byte for byte."""
        outputs = {}
        for variant in ("python", "compiled"):
            env = {**os.environ, "REPRO_KERNEL": variant,
                   "PYTHONPATH": str(REPO / "src")}
            proc = subprocess.run(
                [sys.executable, "-c", EQUIVALENCE_PROBE],
                capture_output=True, text=True, timeout=600, env=env, cwd=REPO,
            )
            assert proc.returncode == 0, proc.stderr
            outputs[variant] = proc.stdout
        assert outputs["python"] == outputs["compiled"]
