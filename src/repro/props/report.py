"""Composable claimed-vs-measured property reports.

:func:`check_properties` is the one place a finished run is judged:
it takes the four measured verdicts of :mod:`repro.props.checkers` and
wraps them with the *expectation* derived from the algorithm's claims
and the scenario's declared assumption class
(:mod:`repro.props.claims`).  The resulting :class:`PropertyReport` is
a small value object -- JSON round-trippable and picklable -- that
:class:`~repro.engine.summary.RunSummary` embeds, so property verdicts
ride through the parallel engine and its JSONL cache like any other
cell outcome; the measured records themselves travel beside it
(:attr:`PropertyReport.measured`) for the in-process readers that
flatten them into census columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.props.checkers import (
    BoundednessVerdict,
    LeadershipVerdict,
    SingleWriterVerdict,
    WriteOptimalityVerdict,
    leadership_verdict,
    record_table,
    single_writer_verdict,
    write_optimality_verdict,
)
from repro.props.claims import THEOREM_NAMES, expected_theorems


@dataclass(frozen=True)
class TheoremVerdict:
    """One theorem's claimed-vs-measured outcome."""

    theorem: int
    name: str
    #: Measured: did the behaviour satisfy the property?
    holds: bool
    #: Claimed: does the algorithm promise it under the scenario's
    #: declared assumption class?
    expected: bool
    detail: str = ""

    @property
    def violated(self) -> bool:
        """A violation is a *broken promise*: expected but not measured."""
        return self.expected and not self.holds

    def to_jsonable(self) -> Dict[str, Any]:
        """The plain-JSON form (RunSummary embedding)."""
        return {
            "theorem": self.theorem,
            "name": self.name,
            "holds": self.holds,
            "expected": self.expected,
            "detail": self.detail,
        }

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, Any]) -> "TheoremVerdict":
        """Rebuild a verdict from its JSON form."""
        return cls(
            theorem=int(payload["theorem"]),
            name=str(payload["name"]),
            holds=bool(payload["holds"]),
            expected=bool(payload["expected"]),
            detail=str(payload.get("detail", "")),
        )


@dataclass(frozen=True)
class PropertyReport:
    """Theorem 1-4 verdicts for one run."""

    algorithm: str
    #: Assumption class the scenario declared ("none"/"awb"/"ev-sync").
    assumption: str
    #: Assumption class the algorithm's claims require.
    requires: str
    #: Theorems the algorithm claims (sorted).
    claimed: Tuple[int, ...]
    #: One verdict per checked theorem, in theorem order.
    verdicts: Tuple[TheoremVerdict, ...]
    #: The four measured records ``verdicts`` was folded from, as
    #: :func:`check_properties` produced them.  In-process only: not
    #: compared, not serialized, ``None`` on a report rebuilt from JSON.
    measured: Optional[
        Tuple[LeadershipVerdict, BoundednessVerdict, SingleWriterVerdict, WriteOptimalityVerdict]
    ] = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        """True when no claimed theorem was violated."""
        return not self.violations()

    def violations(self) -> List[TheoremVerdict]:
        """Expected-but-failed verdicts (empty on a clean audit)."""
        return [v for v in self.verdicts if v.violated]

    def verdict(self, theorem: int) -> TheoremVerdict:
        """The verdict for one theorem number (KeyError if unchecked)."""
        for v in self.verdicts:
            if v.theorem == theorem:
                return v
        raise KeyError(f"no verdict for theorem {theorem}")

    # ------------------------------------------------------------------
    def to_jsonable(self) -> Dict[str, Any]:
        """The plain-JSON form (RunSummary embedding)."""
        return {
            "algorithm": self.algorithm,
            "assumption": self.assumption,
            "requires": self.requires,
            "claimed": list(self.claimed),
            "verdicts": [v.to_jsonable() for v in self.verdicts],
        }

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, Any]) -> "PropertyReport":
        """Rebuild a report from its JSON form."""
        return cls(
            algorithm=str(payload["algorithm"]),
            assumption=str(payload["assumption"]),
            requires=str(payload["requires"]),
            claimed=tuple(int(t) for t in payload.get("claimed", ())),
            verdicts=tuple(
                TheoremVerdict.from_jsonable(v) for v in payload.get("verdicts", ())
            ),
        )


# ----------------------------------------------------------------------
def check_properties(
    result: Any,
    *,
    assumption: str = "awb",
    margin: float = 0.0,
    window: float = 100.0,
    algorithm_cls: Optional[type] = None,
) -> PropertyReport:
    """Judge a finished run against Theorems 1-4, once.

    Parameters
    ----------
    result:
        A :class:`~repro.core.runner.RunResult` (duck-typed: needs
        ``horizon``, ``trace``, ``memory``, ``crash_plan``,
        ``algorithms``, ``algorithm_name``).
    assumption:
        Environment class the scenario declares; decides which claimed
        theorems are *expected* (see :mod:`repro.props.claims`).
    margin:
        Stability margin for the Theorem 1 verdict (scenario-chosen).
    window:
        Tail-window width for the Theorem 3/4 verdicts; the horizon
        must hold :data:`~repro.props.checkers.CENSUS_WINDOWS` of them.
    algorithm_cls:
        Override for the claims source; defaults to the class of the
        run's algorithm instances.

    One walk of the leader samples and one of the write log; only
    consumes the write log and its index, the crash plan and the
    leader-sample trace, so it works identically in the engine's
    low-overhead run mode.  A message-passing run (one with a
    ``network``) is refused with ``ValueError``: Theorems 2-4 judge
    shared-memory registers, which it has none of.
    """
    if getattr(result, "network", None) is not None:
        raise ValueError(
            "Theorems 2-4 concern shared-memory registers and a message-passing "
            "run has none; its verdict is RunResult.stabilization()"
        )
    cls = algorithm_cls or type(result.algorithms[0])
    claimed = frozenset(getattr(cls, "claimed_theorems", frozenset()))
    requires = getattr(cls, "requires_assumption", "awb")
    expected = expected_theorems(cls, assumption)

    memory, horizon = result.memory, result.horizon
    t1 = leadership_verdict(result.trace, result.crash_plan, horizon, margin=margin)
    leader = t1.leader if t1.holds else None
    t2 = record_table(memory.write_log, horizon).finish(leader, settle_time=t1.settle_time)
    t3 = single_writer_verdict(memory, horizon, tail=window, leader=leader)
    t4 = write_optimality_verdict(memory, horizon, window=window, leader=leader)
    measured = (t1, t2, t3, t4)
    return PropertyReport(
        algorithm=result.algorithm_name,
        assumption=assumption,
        requires=requires,
        claimed=tuple(sorted(claimed)),
        verdicts=tuple(
            TheoremVerdict(
                theorem=theorem,
                name=THEOREM_NAMES[theorem],
                holds=record.holds,
                expected=theorem in expected,
                detail=record.detail,
            )
            for theorem, record in enumerate(measured, start=1)
        ),
        measured=measured,
    )


__all__ = ["PropertyReport", "TheoremVerdict", "check_properties"]
