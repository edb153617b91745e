"""The search pipeline's shared half: oracle, record, replay, settle.

Two adversarial searches drive the repo's oracles -- the chaos
campaigns (:mod:`repro.faults.campaign`, subject: a fault plan) and the
coverage-guided fuzzer (:mod:`repro.fuzz.loop`, subject: a scenario
genome).  They differ in how candidates are *generated and run*; what
happens once a run comes back is the same, and lives here exactly once:

* :func:`violation_count` -- the oracle (also ``repro check``'s);
* :func:`replay` -- one pinned repro payload through
  :func:`~repro.engine.worker.run_point`;
* :class:`Violation` -- the record of one violating subject and its
  JSON form;
* :func:`settle` -- judge -> shrink -> pin: the step that turns a
  violating subject into a :class:`Violation`;
* :func:`check_search_config` -- the one rule both search configs
  validate their knobs by.

The module knows neither plans nor genomes: a search hands
:func:`settle` a ``pin`` function (subject -> pinned repro payload) and
its delta debugger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional

from repro.engine.summary import RunSummary
from repro.engine.worker import run_point


def violation_count(summary: RunSummary) -> int:
    """The search oracle: every violation class a run can surface.

    Theorem 1-4 monitor violations, consistency history-audit
    violations, write-ack value-integrity violations and a failed
    Omega Validity or Termination check all count -- a run is clean
    only when *all* of them are zero.
    """
    return (
        summary.property_violations
        + summary.audit_violations
        + summary.integrity_violations
        + (not summary.valid)
        + (not summary.termination_ok)
    )


def check_search_config(config: Any, minimums: Mapping[str, int]) -> None:
    """Refuse search knobs that would run nothing, or nonsense.

    Each field named in ``minimums`` must reach its minimum -- a
    pass/fail audit must not go green on an empty run -- and
    ``config.horizon`` must be positive and finite.  Raises
    :class:`ValueError` naming the field.
    """
    for name, least in minimums.items():
        value = getattr(config, name)
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value!r}")
    if not 0 < config.horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {config.horizon!r}")


def replay(payload: Mapping[str, Any]) -> RunSummary:
    """Run one pinned repro payload and summarize it.

    A payload is ``{"factory", "kwargs", "algorithm", "seed"}`` (extra
    keys, like the fuzzer's ``"genome"``, are ignored) -- exactly the
    point :func:`~repro.engine.worker.run_point` runs for engine cells
    too, so forward runs, shrink oracles and ``repro fuzz --replay``
    see byte-identical summaries.
    """
    return run_point(
        payload["factory"], payload["kwargs"], payload["algorithm"], int(payload["seed"])
    )


@dataclass
class Violation:
    """One violating search subject, with its shrunk pinned repro."""

    #: What the subject is -- ``"plan"`` or ``"genome"``: its JSON key,
    #: and the attribute a shrinker's result carries the reduction under.
    kind: str
    #: The subject as the search first found it.
    subject: Any
    #: Oracle count of the violating run.
    violations: int
    #: Search-specific coordinates leading the JSON form (a campaign's
    #: plan ``index`` and run ``seed``).
    where: Dict[str, Any] = field(default_factory=dict)
    #: The minimal violating subject (``None`` when shrinking was off).
    shrunk: Optional[Any] = None
    #: Replays the delta debugger spent.
    oracle_runs: int = 0
    #: The pinned repro of :attr:`minimal`, ready for :func:`replay`,
    #: ``repro run`` and ``ScenarioRef.make``.
    repro: Dict[str, Any] = field(default_factory=dict)

    @property
    def minimal(self) -> Any:
        """The smallest violating subject known: shrunk, else as found."""
        return self.subject if self.shrunk is None else self.shrunk

    def to_jsonable(self) -> Dict[str, Any]:
        """The violation entry of the ``--json`` reports."""
        return {
            **self.where,
            self.kind: self.subject.to_jsonable(),
            "violations": self.violations,
            "shrunk": None if self.shrunk is None else self.shrunk.to_jsonable(),
            "oracle_runs": self.oracle_runs,
            "repro": self.repro,
        }


def settle(
    kind: str,
    subject: Any,
    count: int,
    *,
    pin: Callable[[Any], Dict[str, Any]],
    shrink: Optional[Callable[[Any, Callable[[Any], bool]], Any]] = None,
    **where: Any,
) -> Violation:
    """Turn a violating ``subject`` into its :class:`Violation`.

    ``pin`` maps a subject to its pinned repro payload.  ``shrink``
    (``None``: keep the subject as found) is the search's delta
    debugger, ``shrink(subject, is_violating) -> result`` with the
    reduction at ``getattr(result, kind)`` and ``result.oracle_runs``;
    its oracle replays exactly the payload that would be pinned, so the
    shrunk repro is guaranteed to reproduce.
    """
    violation = Violation(kind, subject, count, where)
    if shrink is not None:
        reduced = shrink(
            subject, lambda candidate: violation_count(replay(pin(candidate))) > 0
        )
        violation.shrunk = getattr(reduced, kind)
        violation.oracle_runs = reduced.oracle_runs
    violation.repro = pin(violation.minimal)
    return violation


__all__ = ["Violation", "check_search_config", "replay", "settle", "violation_count"]
