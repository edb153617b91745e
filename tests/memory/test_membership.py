"""Dynamic membership vocabulary: configs, events, plans, quorum math.

Unit coverage for :mod:`repro.memory.membership` plus the hypothesis
property at the heart of the two-config transition window: **any two
quorums drawn from adjacent configurations intersect** as long as both
satisfy the dual-quorum predicate (a majority of the old config AND a
majority of the new one).  The end-to-end churn battery lives in
``tests/core/test_membership_run.py``; this file pins the algebra it
relies on.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.emulated import EmulationConfig
from repro.memory.membership import (
    MEMBERSHIP_KINDS,
    MEMBERSHIP_MODES,
    TRANSITION_MODES,
    MembershipEvent,
    MembershipPlan,
    ReplicaConfig,
    churn_plan,
    quorum_met,
    quorum_rule,
)


# ----------------------------------------------------------------------
# ReplicaConfig: the versioned member set and its majority quorum
# ----------------------------------------------------------------------
class TestReplicaConfig:
    def test_members_are_canonicalized_sorted(self):
        cfg = ReplicaConfig(config_id=0, members=(2, 0, 1))
        assert cfg.members == (0, 1, 2)
        assert cfg.member_set == frozenset({0, 1, 2})

    @pytest.mark.parametrize("size,majority", [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3)])
    def test_majority_is_floor_half_plus_one(self, size, majority):
        assert ReplicaConfig(0, tuple(range(size))).majority == majority

    def test_quorum_met_requires_members_not_strangers(self):
        rule = quorum_rule(ReplicaConfig(1, (0, 1, 2)))
        assert quorum_met(rule, {0, 1})
        assert quorum_met(rule, {0, 1, 2, 99})
        assert not quorum_met(rule, {0})
        assert not quorum_met(rule, {0, 98, 99})  # strangers don't count

    def test_rejects_negative_config_id(self):
        with pytest.raises(ValueError, match="negative config id"):
            ReplicaConfig(-1, (0, 1))

    def test_rejects_empty_member_set(self):
        with pytest.raises(ValueError, match="at least one member"):
            ReplicaConfig(0, ())

    def test_rejects_duplicate_members(self):
        with pytest.raises(ValueError, match="repeats a member"):
            ReplicaConfig(0, (1, 1, 2))

    def test_rejects_negative_member_index(self):
        with pytest.raises(ValueError, match="negative member index"):
            ReplicaConfig(0, (-1, 0))


# ----------------------------------------------------------------------
# MembershipEvent: one join/leave entry and its JSON form
# ----------------------------------------------------------------------
class TestMembershipEvent:
    def test_kinds_are_join_then_leave(self):
        assert MEMBERSHIP_KINDS == ("join", "leave")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown membership kind"):
            MembershipEvent("replace", 10.0, 0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="negative membership time"):
            MembershipEvent("join", -1.0, 3)

    def test_rejects_negative_replica(self):
        with pytest.raises(ValueError, match="non-negative replica"):
            MembershipEvent("leave", 10.0, -2)

    def test_json_round_trip(self):
        ev = MembershipEvent("join", 600.0, 3)
        assert MembershipEvent.from_jsonable(ev.to_jsonable()) == ev

    def test_from_jsonable_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown membership-event key"):
            MembershipEvent.from_jsonable({"kind": "join", "at": 1.0, "replica": 3, "x": 1})

    def test_join_sorts_before_leave_at_equal_times(self):
        join = MembershipEvent("join", 100.0, 3)
        leave = MembershipEvent("leave", 100.0, 0)
        assert join.sort_key() < leave.sort_key()


# ----------------------------------------------------------------------
# MembershipPlan: validated, sorted, JSON-round-trippable timelines
# ----------------------------------------------------------------------
class TestMembershipPlan:
    def test_events_sort_on_construction(self):
        plan = MembershipPlan(
            (MembershipEvent("leave", 900.0, 0), MembershipEvent("join", 300.0, 3))
        )
        assert [ev.kind for ev in plan] == ["join", "leave"]

    def test_validate_accepts_the_canonical_churn(self):
        churn_plan(3, 8000.0).validate(3)  # must not raise

    def test_validate_rejects_out_of_order_join(self):
        plan = MembershipPlan((MembershipEvent("join", 100.0, 5),))
        with pytest.raises(ValueError, match="out of order"):
            plan.validate(3)

    def test_validate_rejects_leave_of_non_member(self):
        plan = MembershipPlan((MembershipEvent("leave", 100.0, 7),))
        with pytest.raises(ValueError, match="not a member"):
            plan.validate(3)

    def test_validate_rejects_dropping_below_two_members(self):
        plan = MembershipPlan(
            (MembershipEvent("leave", 100.0, 0), MembershipEvent("leave", 200.0, 1))
        )
        with pytest.raises(ValueError, match="below two"):
            plan.validate(3)

    def test_validate_rejects_single_replica_base(self):
        with pytest.raises(ValueError, match=">= 2 initial replicas"):
            MembershipPlan(()).validate(1)

    def test_member_timeline_walks_the_state_machine(self):
        plan = MembershipPlan(
            (
                MembershipEvent("join", 600.0, 3),
                MembershipEvent("leave", 1200.0, 0),
            )
        )
        assert plan.member_timeline(3) == (
            (0.0, (0, 1, 2)),
            (600.0, (0, 1, 2, 3)),
            (1200.0, (1, 2, 3)),
        )
        assert plan.max_replica_index(3) == 4

    def test_empty_plan_edges(self):
        plan = MembershipPlan(())
        assert len(plan) == 0
        assert plan.member_timeline(3) == ((0.0, (0, 1, 2)),)
        assert plan.max_replica_index(3) == 3

    def test_json_round_trip(self):
        plan = churn_plan(4, 6000.0)
        assert MembershipPlan.from_jsonable(plan.to_jsonable()) == plan
        assert MembershipPlan.from_jsonable(None) == MembershipPlan(())

    def test_churn_plan_is_a_replace_one_replica_pair(self):
        plan = churn_plan(3, 8000.0)
        assert [ev.kind for ev in plan] == ["join", "leave"]
        join, leave = plan.events
        assert join.replica == 3 and join.at == pytest.approx(2400.0)
        assert leave.replica == 0 and leave.at == pytest.approx(4400.0)
        plan.validate(3)

    def test_mode_vocabularies_are_pinned(self):
        # CLI choices, spec validation and the fuzzer's negative-control
        # hook all index into these; a silent rename breaks replays.
        assert TRANSITION_MODES == ("dual-quorum", "single-config")
        assert MEMBERSHIP_MODES == ("none", "churn")


# ----------------------------------------------------------------------
# EmulationConfig: the membership knobs ride the JSON round trip
# ----------------------------------------------------------------------
class TestEmulationConfigMembership:
    def test_round_trip_preserves_membership_knobs(self):
        cfg = EmulationConfig(
            replicas=3,
            membership_plan=churn_plan(3, 8000.0).events,
            transfer_delay=90.0,
            transition="dual-quorum",
            record_history=True,
        )
        payload = {
            "replicas": 3,
            "membership_plan": [ev.to_jsonable() for ev in cfg.membership_plan],
            "transfer_delay": 90,
            "transition": "dual-quorum",
            "record_history": True,
        }
        assert EmulationConfig.from_dict(json.loads(json.dumps(payload))) == cfg

    def test_rejects_unknown_transition_mode(self):
        with pytest.raises(ValueError, match="unknown transition mode"):
            EmulationConfig(replicas=3, transition="triple-config")

    def test_rejects_non_positive_transfer_delay(self):
        with pytest.raises(ValueError, match="transfer_delay must be positive"):
            EmulationConfig(replicas=3, transfer_delay=0.0)

    def test_rejects_illegal_plan_for_replica_count(self):
        with pytest.raises(ValueError, match="out of order"):
            EmulationConfig(
                replicas=4, membership_plan=(MembershipEvent("join", 100.0, 3),)
            )

    def test_rejects_crash_before_join(self):
        with pytest.raises(ValueError, match="before it joins"):
            EmulationConfig(
                replicas=3,
                membership_plan=(MembershipEvent("join", 1000.0, 3),),
                replica_crash_times=((3, 500.0),),
            )

    def test_rejects_crashes_that_starve_the_current_members(self):
        # After replicas 3, 4 join and 0, 1 leave, the member set is
        # {2, 3, 4}: crashing two of them kills the quorum.
        plan = (
            MembershipEvent("join", 600.0, 3),
            MembershipEvent("join", 900.0, 4),
            MembershipEvent("leave", 1200.0, 0),
            MembershipEvent("leave", 1500.0, 1),
        )
        with pytest.raises(ValueError, match="no live\\s+majority"):
            EmulationConfig(
                replicas=3,
                membership_plan=plan,
                replica_crash_times=((2, 2500.0), (3, 2600.0)),
            )

    def test_allows_minority_crash_in_the_final_config(self):
        plan = (
            MembershipEvent("join", 600.0, 3),
            MembershipEvent("join", 900.0, 4),
            MembershipEvent("leave", 1200.0, 0),
            MembershipEvent("leave", 1500.0, 1),
        )
        cfg = EmulationConfig(
            replicas=3, membership_plan=plan, replica_crash_times=((2, 2500.0),)
        )
        assert MembershipPlan(cfg.membership_plan).member_timeline(3)[-1][1] == (2, 3, 4)


# ----------------------------------------------------------------------
# The transition-window property: adjacent-config quorums intersect
# ----------------------------------------------------------------------
def _adjacent_configs(draw) -> tuple:
    """An old config plus the new config one join/leave event away."""
    size = draw(st.integers(min_value=2, max_value=7))
    old = ReplicaConfig(0, tuple(range(size)))
    if size > 2 and draw(st.booleans()):
        gone = draw(st.integers(min_value=0, max_value=size - 1))
        members = tuple(i for i in old.members if i != gone)
    else:
        members = old.members + (size,)
    return old, ReplicaConfig(1, members)


@st.composite
def adjacent_config_pairs(draw):
    return _adjacent_configs(draw)


@st.composite
def dual_quorum_replies(draw):
    """Two independent reply sets, each satisfying the dual-quorum
    predicate for one adjacent-config pair."""
    old, new = draw(adjacent_config_pairs())
    universe = sorted(old.member_set | new.member_set)

    def reply_set() -> frozenset:
        picked = frozenset(
            i for i in universe if draw(st.booleans())
        )
        # Top up until the dual-quorum predicate holds; deterministic
        # fill order keeps the strategy shrinkable.
        for i in universe:
            if quorum_met(quorum_rule(old, new), picked):
                break
            picked |= {i}
        return picked

    return old, new, reply_set(), reply_set()


class TestTransitionWindowQuorums:
    @settings(max_examples=200, deadline=None)
    @given(dual_quorum_replies())
    def test_any_two_dual_quorums_intersect(self, case):
        """The RAMBO window invariant: two operations completing inside
        the same transition window always share a replica, so a write's
        timestamp is visible to every subsequent read."""
        old, new, a, b = case
        assert quorum_met(quorum_rule(old, new), a)
        assert quorum_met(quorum_rule(old, new), b)
        assert a & b, (old.members, new.members, sorted(a), sorted(b))

    @settings(max_examples=200, deadline=None)
    @given(adjacent_config_pairs())
    def test_dual_quorums_intersect_plain_majorities_of_both_configs(self, pair):
        """A dual quorum also intersects every majority of EITHER config
        alone -- the property that makes the window safe against
        operations that completed just before (old config) or just after
        (new config) the transition."""
        old, new = pair
        # The smallest dual quorum one can build greedily.
        dual: set = set()
        for i in sorted(old.member_set | new.member_set):
            if quorum_met(quorum_rule(old, new), dual):
                break
            dual.add(i)
        assert quorum_met(quorum_rule(old, new), dual)
        # Exhaustive over all majorities of each config (configs are
        # small by construction, so this is cheap).
        from itertools import combinations

        for cfg in (old, new):
            for majority in combinations(cfg.members, cfg.majority):
                assert dual & set(majority), (cfg.members, sorted(dual), majority)

    @settings(max_examples=120, deadline=None)
    @given(adjacent_config_pairs())
    def test_single_config_mode_can_miss_the_new_majority(self, pair):
        """Why ``single-config`` is broken: an old-config majority that
        avoids the surviving overlap need not intersect a new-config
        majority.  The witness exists whenever the adjacent configs are
        genuinely different AND quorum arithmetic leaves slack; at the
        very least the old majority never *guarantees* the dual
        predicate that the window invariant needs."""
        old, new = pair
        from itertools import combinations

        old_majorities = [set(c) for c in combinations(old.members, old.majority)]
        # Every dual quorum holds a new-config majority; the broken mode
        # accepts any old majority, so soundness requires ALL old
        # majorities to be new majorities too -- which fails whenever a
        # member left (its majority-mates may be gone) or the join grew
        # the quorum size.
        new_rule = quorum_rule(new)
        all_covered = all(quorum_met(new_rule, m) for m in old_majorities)
        if old.members != new.members and not all_covered:
            witness = next(m for m in old_majorities if not quorum_met(new_rule, m))
            assert not quorum_met(new_rule, witness)


# ----------------------------------------------------------------------
# The same predicate on a static config, and its wiring into production
# ----------------------------------------------------------------------
@st.composite
def static_replies(draw):
    """A static config, a member node and a reply set drawn from the
    members -- static runs broadcast to members only, so replies never
    contain strangers."""
    size = draw(st.integers(min_value=2, max_value=9))
    node = draw(st.integers(min_value=0, max_value=size - 1))
    replies = frozenset(i for i in range(size) if draw(st.booleans()))
    return ReplicaConfig(0, tuple(range(size))), node, replies


class TestStaticConfigIsThePlainMajorityCount:
    @settings(max_examples=300, deadline=None)
    @given(static_replies())
    def test_equals_the_two_int_rule(self, case):
        """The deleted static fast path was ``len(replies) >= majority``."""
        cfg, _, replies = case
        assert quorum_met(quorum_rule(cfg), replies) == (len(replies) >= cfg.majority)

    @settings(max_examples=300, deadline=None)
    @given(static_replies())
    def test_resync_variant_equals_the_capped_count(self, case):
        """The deleted static resync rule was ``len(replies) >=
        min(majority, replicas - 1)`` over replies from the *other*
        replicas; the cap is what lets a 2-replica emulation resync."""
        cfg, node, replies = case
        others = replies - {node}
        expected = len(others) >= min(cfg.majority, len(cfg.members) - 1)
        assert quorum_met(quorum_rule(cfg), others, exclude=node) == expected

    def test_two_replica_resync_completes_on_the_single_other(self):
        rule = quorum_rule(ReplicaConfig(0, (0, 1)))
        assert not quorum_met(rule, {0})  # a client phase needs both
        assert quorum_met(rule, {0}, exclude=1)
        assert not quorum_met(rule, set(), exclude=1)

    def test_excluded_node_never_counts_toward_its_own_quorum(self):
        rule = quorum_rule(ReplicaConfig(0, (0, 1, 2)))
        assert not quorum_met(rule, {0, 1}, exclude=1)
        assert quorum_met(rule, {0, 2}, exclude=1)


class TestProductionRunsTheProvedRule:
    """``EmulatedMemory`` holds no quorum logic of its own: what it
    evaluates is ``quorum_met`` over the rule checked here."""

    def _memory(self, transition: str):
        from repro.memory.emulated import EmulatedMemory
        from repro.sim.kernel import Simulator
        from repro.sim.rng import RngRegistry

        sim = Simulator()
        mem = EmulatedMemory(
            clock=lambda: sim.now,
            sim=sim,
            rng=RngRegistry(3),
            config=EmulationConfig(
                replicas=3,
                membership_plan=(MembershipEvent("join", 10.0, 3),),
                transfer_delay=50.0,
                transition=transition,
            ),
        )
        mem.create_register("R", owner=0, initial=0)
        mem.start(horizon=1000.0)
        return sim, mem

    def test_rule_in_force_across_a_dual_quorum_window(self):
        sim, mem = self._memory("dual-quorum")
        assert mem._rule == quorum_rule(mem.current_config)
        assert mem._serving == (0, 1, 2)
        sim.run(until=20.0)  # window open
        assert mem.next_config is not None
        assert mem._rule == quorum_rule(mem.current_config, mem.next_config)
        assert mem._serving == (0, 1, 2, 3)
        sim.run(until=200.0)  # transfer landed, config installed
        assert mem.next_config is None and mem.configs_installed == 1
        assert mem._rule == quorum_rule(ReplicaConfig(1, (0, 1, 2, 3)))
        assert not mem._rounds

    def test_single_config_never_puts_the_proposed_config_in_force(self):
        sim, mem = self._memory("single-config")
        sim.run(until=20.0)
        assert mem.next_config is not None
        assert mem._rule == quorum_rule(mem.current_config)
        assert mem._serving == (0, 1, 2)
