"""Trace-feature signatures and the AFL-style coverage map."""

from __future__ import annotations

from repro.engine.summary import RunSummary
from repro.fuzz.coverage import (
    SMALL_COUNT_CAP,
    TraceFeatureMap,
    bucket,
    signature,
    signature_key,
)


def summary(**overrides) -> RunSummary:
    base = dict(
        algorithm="alg1",
        scenario="fuzz-shared-uniform-none-n3",
        seed=0,
        n=3,
        horizon=3000.0,
        stabilized=True,
        stabilization_time=400.0,
        leader=1,
        valid=True,
        termination_ok=True,
        forever_writer_count=1,
        forever_writers=frozenset({1}),
        growing_register_count=0,
        single_writer=True,
        total_writes=10,
        total_reads=20,
    )
    base.update(overrides)
    return RunSummary(**base)


class TestBucket:
    def test_log2_buckets(self):
        assert [bucket(v) for v in (0, 1, 2, 3, 4, 7, 8, 1023)] == [
            0, 1, 2, 2, 3, 3, 4, 10,
        ]

    def test_negative_counters_clamp_to_zero(self):
        assert bucket(-5) == 0


class TestSignature:
    def test_features_are_behavioural_not_configurational(self):
        # Backend/consistency echoes must not create fake novelty: two
        # runs that behave identically share a signature even when one
        # is emulated and the other shared.
        a = summary(memory_backend="shared", consistency="regular")
        b = summary(memory_backend="emulated", consistency="atomic")
        assert signature(a) == signature(b)

    def test_churn_is_bucketed_not_exact(self):
        assert signature(summary(leader_changes=4)) == signature(
            summary(leader_changes=7)
        )
        assert signature(summary(leader_changes=4)) != signature(
            summary(leader_changes=8)
        )

    def test_never_stabilized_gets_its_own_decile(self):
        sig = dict(signature(summary(stabilized=False, stabilization_time=None)))
        assert sig["stab_decile"] == -1

    def test_small_counters_cap(self):
        assert signature(summary(recoveries=SMALL_COUNT_CAP)) == signature(
            summary(recoveries=SMALL_COUNT_CAP + 3)
        )

    def test_key_is_stable_and_readable(self):
        key = signature_key(signature(summary()))
        assert key.startswith("stabilized=True|")
        assert "churn=" in key


class TestTraceFeatureMap:
    def test_observe_reports_novelty_once(self):
        cov = TraceFeatureMap()
        sig = signature(summary())
        assert cov.observe(sig) is True
        assert cov.observe(sig) is False
        assert len(cov) == 1
        assert cov.to_jsonable()[signature_key(sig)] == 2

    def test_round_trip_preserves_hits(self):
        cov = TraceFeatureMap()
        cov.observe(signature(summary()))
        cov.observe(signature(summary(leader_changes=9)))
        clone = TraceFeatureMap.from_jsonable(cov.to_jsonable())
        assert clone.keys() == cov.keys()
        assert clone.to_jsonable() == cov.to_jsonable()
