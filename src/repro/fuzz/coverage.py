"""Trace-feature coverage: run summaries bucketed into signatures.

The fuzzer's novelty oracle.  :func:`signature` compresses a
:class:`~repro.engine.summary.RunSummary` into a tuple of bucketed
behavioural features -- leader-churn counts, stabilization deciles,
retransmission depth, recovery/resync counts, the quorum write-back,
reconfiguration and message censuses, the audit-op census -- and a
:class:`TraceFeatureMap` keeps the set of signatures the corpus has
reached, AFL-style: a genome whose run lands in a fresh signature is
novel and joins the corpus; one that re-treads a known signature is
discarded.

Counters are log2-bucketed (:func:`bucket`): the interesting difference
between runs is *orders* of retransmission or churn, not exact counts,
and coarse buckets keep the signature space small enough that a modest
corpus can saturate it.  Only behavioural outcomes feed the signature
-- configuration echoes (backend, consistency level) stay out, so a
genome earns corpus residency by *doing* something new, not by being
configured differently.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

#: Cap on the small exact-count features (recoveries, resyncs, forever
#: writers): beyond this many, more of the same is not more coverage.
SMALL_COUNT_CAP = 4

#: A signature: ``(feature name, bucketed value)`` pairs, fixed order.
Signature = Tuple[Tuple[str, Any], ...]


def bucket(value: int) -> int:
    """Log2 bucket of a non-negative counter.

    0 -> 0, 1 -> 1, 2..3 -> 2, 4..7 -> 3, ... (``value.bit_length()``).
    """
    return max(0, int(value)).bit_length()


def _decile(time: Any, horizon: float) -> int:
    """Stabilization decile within the horizon; -1 = never stabilized."""
    if time is None or horizon <= 0:
        return -1
    return min(9, max(0, int(10.0 * float(time) / horizon)))


def signature(summary: Any) -> Signature:
    """The coverage signature of one run summary.

    Duck-typed over :class:`~repro.engine.summary.RunSummary` fields so
    the module stays import-light; absent fields bucket as zero.
    """

    def count(name: str) -> int:
        return int(getattr(summary, name, 0) or 0)

    return (
        ("stabilized", bool(getattr(summary, "stabilized", False))),
        ("leader_correct", bool(getattr(summary, "leader_correct", False))),
        ("stab_decile", _decile(
            getattr(summary, "stabilization_time", None),
            float(getattr(summary, "horizon", 0.0) or 0.0),
        )),
        ("churn", bucket(count("leader_changes"))),
        ("suspicions", bucket(count("suspicion_writes_total"))),
        ("retransmissions", bucket(count("retransmissions"))),
        ("recoveries", min(count("recoveries"), SMALL_COUNT_CAP)),
        ("resyncs", min(count("resyncs"), SMALL_COUNT_CAP)),
        ("write_backs", bucket(count("write_backs"))),
        ("configs_installed", min(count("configs_installed"), SMALL_COUNT_CAP)),
        ("dual_quorum_ops", bucket(count("dual_quorum_ops"))),
        ("transfer_rounds", min(count("transfer_rounds"), SMALL_COUNT_CAP)),
        ("messages", bucket(count("messages_sent"))),
        ("audit_ops", bucket(count("audit_ops"))),
        ("single_writer", bool(getattr(summary, "single_writer", False))),
        ("forever_writers", min(count("forever_writer_count"), SMALL_COUNT_CAP)),
    )


def signature_key(sig: Signature) -> str:
    """Compact stable string form (the coverage-map dictionary key)."""
    return "|".join(f"{name}={value}" for name, value in sig)


class TraceFeatureMap:
    """The set of signatures reached so far, with hit counts.

    JSON round-trippable so the persisted corpus carries its coverage
    across nightly runs.
    """

    def __init__(self, counts: Mapping[str, int] | None = None) -> None:
        self._counts: Dict[str, int] = dict(counts or {})

    def __len__(self) -> int:
        return len(self._counts)

    def observe(self, sig: Signature) -> bool:
        """Record one run's signature; True when it is novel."""
        key = signature_key(sig)
        novel = key not in self._counts
        self._counts[key] = self._counts.get(key, 0) + 1
        return novel

    def keys(self) -> List[str]:
        """The reached signature keys, sorted (deterministic order)."""
        return sorted(self._counts)

    def hits(self, key: str) -> int:
        """How many runs landed in ``key`` (0 when unreached)."""
        return self._counts.get(key, 0)

    def to_jsonable(self) -> Dict[str, int]:
        """The plain-JSON form (sorted on dump by the corpus writer)."""
        return dict(self._counts)

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, int] | None) -> "TraceFeatureMap":
        """Rebuild a map from :meth:`to_jsonable` output."""
        return cls({str(k): int(v) for k, v in dict(payload or {}).items()})


__all__ = [
    "SMALL_COUNT_CAP",
    "Signature",
    "TraceFeatureMap",
    "bucket",
    "signature",
    "signature_key",
]
