"""Seeded chaos campaigns: fault plans run under the repo's oracles.

A campaign turns the fault subsystem into an *auditor*: generate N
seeded :class:`~repro.faults.plan.FaultPlan` timelines, run each one
through the ``chaos`` scenario (ABD emulation with the history recorder
armed), and judge every run with the oracles the repo already trusts --
the Theorem 1-4 property monitors and the consistency history audit
(plus the write-ack value-integrity cross-check).  A correct emulation
must survive every generated plan with **zero** violations.

This module owns what is particular to campaigns -- generating the
plans, the ``chaos`` cell a plan pins (:func:`pinned_repro`) and the
aggregate resilience counters.  Judging a run, delta-debugging a
violating plan (:func:`repro.faults.shrink.shrink_plan`) down to a
1-minimal pinned repro you can paste into ``repro run``, and the
violation record itself are the search pipeline's
(:mod:`repro.engine.search`), shared with :mod:`repro.fuzz.loop`.

This module imports the workloads/engine stack, so it is deliberately
**not** re-exported from :mod:`repro.faults` (which
:mod:`repro.memory.emulated` imports); import it explicitly, as
``repro chaos`` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.engine.search import Violation, check_search_config, replay, settle, violation_count
# ``summarize_run`` is unused here, but the repo benchmark's span
# recorder (bench/spans.py) rebinds it on this module by name.
from repro.engine.summary import RunSummary, summarize_run  # noqa: F401
from repro.faults.generator import FaultScheduleGenerator
from repro.faults.plan import FaultPlan
from repro.faults.shrink import shrink_plan


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs of one chaos campaign (all plain data)."""

    #: Algorithm registry name every plan runs against.
    algorithm: str = "alg1"
    #: Campaign seed: plan generation *and* the per-plan run seeds
    #: derive from it, so a campaign is reproducible from one integer.
    seed: int = 0
    #: Number of generated fault plans to run.
    plans: int = 20
    #: Process count / horizon / replica count of every chaos cell.
    n: int = 3
    horizon: float = 8000.0
    replicas: int = 3
    #: Maximum disturbance windows per generated plan.
    max_faults: int = 3
    #: Retransmission policy threaded through to the emulation.
    retry_policy: str = "fixed"
    #: Delta-debug violating plans down to minimal pinned repros.
    shrink: bool = True

    def __post_init__(self) -> None:
        check_search_config(self, {"plans": 1, "n": 2, "replicas": 2, "max_faults": 1})


@dataclass
class CampaignResult:
    """What a campaign produced: run counts, aggregates, violations."""

    config: CampaignConfig
    plans_run: int = 0
    #: Aggregated resilience counters across every (non-oracle) run.
    retransmissions: int = 0
    recoveries: int = 0
    resyncs: int = 0
    integrity_violations: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every plan ran clean."""
        return not self.violations

    def to_jsonable(self) -> Dict[str, Any]:
        """A plain-JSON report (the ``repro chaos --json`` payload)."""
        return {
            "algorithm": self.config.algorithm,
            "seed": self.config.seed,
            "plans_run": self.plans_run,
            "retry_policy": self.config.retry_policy,
            "retransmissions": self.retransmissions,
            "recoveries": self.recoveries,
            "resyncs": self.resyncs,
            "integrity_violations": self.integrity_violations,
            "violations": [v.to_jsonable() for v in self.violations],
        }


def replay_plan(plan: FaultPlan, config: CampaignConfig, seed: int) -> RunSummary:
    """Run one fault plan through the chaos scenario and summarize it.

    Deterministic in ``(plan, config, seed)``: this is both the
    campaign's forward path and the delta debugger's oracle, and it
    runs exactly the point :func:`pinned_repro` pins, so a shrunk plan
    is guaranteed to reproduce under exactly these knobs.
    """
    return replay(pinned_repro(plan, config, seed))


def pinned_repro(plan: FaultPlan, config: CampaignConfig, seed: int) -> Dict[str, Any]:
    """The minimal repro as engine-ready plain data.

    The payload pins everything a rerun needs: the ``chaos`` factory
    kwargs (fault plan included, in JSON form), the algorithm and the
    seed -- exactly the shape ``ScenarioRef.make("chaos", ...)``
    accepts.
    """
    return {
        "factory": "chaos",
        "kwargs": {
            "n": config.n,
            "horizon": config.horizon,
            "replicas": config.replicas,
            "plan": plan.to_jsonable(),
            "retry_policy": config.retry_policy,
        },
        "algorithm": config.algorithm,
        "seed": seed,
    }


def run_campaign(
    config: CampaignConfig,
    progress: Optional[Any] = None,
) -> CampaignResult:
    """Run the campaign: generate, run, judge, shrink.

    ``progress`` is an optional ``callable(index, summary, count)``
    hook the CLI uses for per-plan lines; pass ``None`` for silence.
    """
    generator = FaultScheduleGenerator(
        config.seed,
        replicas=config.replicas,
        horizon=config.horizon,
        max_faults=config.max_faults,
    )
    result = CampaignResult(config=config)
    for index in range(config.plans):
        plan = generator.generate(index)
        seed = config.seed + index
        summary = replay_plan(plan, config, seed)
        count = violation_count(summary)
        result.plans_run += 1
        result.retransmissions += summary.retransmissions
        result.recoveries += summary.recoveries
        result.resyncs += summary.resyncs
        result.integrity_violations += summary.integrity_violations
        if progress is not None:
            progress(index, summary, count)
        if count:
            result.violations.append(
                settle(
                    "plan",
                    plan,
                    count,
                    pin=lambda candidate: pinned_repro(candidate, config, seed),
                    shrink=shrink_plan if config.shrink else None,
                    index=index,
                    seed=seed,
                )
            )
    return result


__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "pinned_repro",
    "replay_plan",
    "run_campaign",
]
