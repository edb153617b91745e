"""Compact, picklable run summaries.

Worker processes must not ship a full
:class:`~repro.core.runner.RunResult` back to the driver: it drags the
simulator, the shared memory (with its access logs) and every algorithm
instance across the pickle boundary.  Instead each cell is condensed
*in the worker* into a :class:`RunSummary` -- the run's outcome columns
plus timing/event counts and the small register censuses the ablation
benches need.  It is the one row type of every table in the repo: CLI
``compare``/``sweep``/``check``, the benches and the searches.

Summaries are value objects: two runs of the same (algorithm, scenario,
seed) produce equal summaries whether they executed serially or in a
worker, with or without the low-overhead run mode (``wall_time_s`` is
excluded from comparisons).  :meth:`RunSummary.to_jsonable` /
:meth:`RunSummary.from_jsonable` round-trip losslessly through the
JSONL result store.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.analysis.omega_props import check_termination, check_validity
from repro.analysis.suspicion import SUSPICION_PREFIX, suspicion_writes
from repro.core.runner import RunResult
from repro.props.report import PropertyReport, check_properties

#: Fraction of the horizon counted as the "late" tail for
#: :attr:`RunSummary.suspicion_writes_tail` (the timeout-policy ablation
#: asks "is it still suspecting near the end?").
TAIL_FRACTION = 0.8


@dataclass
class RunSummary:
    """One (algorithm, scenario, seed) outcome plus engine metadata."""

    algorithm: str
    scenario: str
    seed: int
    n: int
    horizon: float
    stabilized: bool
    stabilization_time: Optional[float]
    leader: Optional[int]
    valid: bool
    termination_ok: bool
    forever_writer_count: int
    forever_writers: frozenset
    growing_register_count: int
    single_writer: bool
    total_writes: int
    total_reads: int
    #: Host-clock seconds spent executing + summarizing the cell.
    #: Excluded from equality: it is measurement noise, not outcome.
    wall_time_s: float = field(default=0.0, compare=False)
    #: Discrete events fired by the simulator (deterministic per seed).
    events_fired: int = 0
    #: Whether the stabilized-upon leader is a correct process.
    leader_correct: bool = False
    #: Largest current value among ``SUSPICIONS*`` registers (None when
    #: the algorithm has no such registers).
    max_suspicion: Optional[float] = None
    #: Writes to ``SUSPICIONS*`` registers over the whole run.
    suspicion_writes_total: int = 0
    #: ... and in the late tail ``[TAIL_FRACTION * horizon, end]``.
    suspicion_writes_tail: int = 0
    #: Count of expected-but-failed theorem verdicts (0 = clean audit).
    property_violations: int = 0
    #: The full Theorem 1-4 claimed-vs-measured report.
    properties: Optional[PropertyReport] = None
    #: Memory backend the run used ("shared" or "emulated").
    memory_backend: str = "shared"
    #: Protocol messages sent by the register emulation (0 when shared).
    messages_sent: int = 0
    #: Consistency level of the run's registers: the emulation's
    #: configured level ("regular" or "atomic"); "atomic" for the
    #: shared backend, whose instantaneous registers are atomic by
    #: construction.
    consistency: str = "atomic"
    #: Consistency-audit verdict of the recorded emulated history,
    #: checked at the run's own level (atomic histories against full
    #: linearizability, regular ones against regularity); ``None`` when
    #: nothing was recorded (shared backend, or ``record_history`` off).
    audit_ok: Optional[bool] = None
    #: Operations the consistency audit covered (0 when not recorded).
    audit_ops: int = 0
    #: Violations the consistency audit found (0 when clean or not
    #: recorded; `repro check` counts these alongside the theorem
    #: violations).
    audit_violations: int = 0
    #: Resilience counters of the emulated backend (all 0 for shared
    #: memory): retransmission rounds fired by pending quorum phases,
    #: transient replica recoveries applied from the fault plan, quorum
    #: state-resyncs completed by recovering replicas, and write-ack
    #: value-integrity violations caught by the quorum-certificate
    #: cross-check.
    retransmissions: int = 0
    recoveries: int = 0
    resyncs: int = 0
    integrity_violations: int = 0
    #: Leader-output changes across all pids over the run (the churn
    #: census the fuzz coverage signatures bucket): how many times any
    #: process's leader sample differed from its previous one.
    leader_changes: int = 0
    #: ABD write-back phases completed by atomic-level reads (0 for
    #: shared memory or regular reads) -- the quorum-race census.
    write_backs: int = 0
    #: Reconfiguration counters of the emulated backend's dynamic
    #: membership (all 0 for shared memory or a churn-free plan):
    #: replica configs installed, operations completed inside a
    #: dual-quorum transition window, and membership state-transfer
    #: rounds completed.
    configs_installed: int = 0
    dual_quorum_ops: int = 0
    transfer_rounds: int = 0

    # ------------------------------------------------------------------
    def to_jsonable(self) -> Dict[str, Any]:
        """A plain-JSON dict (frozensets become sorted lists)."""
        out = dataclasses.asdict(self)
        out["forever_writers"] = sorted(self.forever_writers)
        if self.properties is not None:
            out["properties"] = self.properties.to_jsonable()
        return out

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, Any]) -> "RunSummary":
        """Rebuild a summary from :meth:`to_jsonable` output (unknown
        keys are ignored, so old cache rows load under newer fields)."""
        data = dict(payload)
        data["forever_writers"] = frozenset(data.get("forever_writers", ()))
        if isinstance(data.get("properties"), Mapping):
            data["properties"] = PropertyReport.from_jsonable(data["properties"])
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def canonical_json(self) -> str:
        """Deterministic serialization of the *outcome* fields.

        Drops every ``compare=False`` field, so two equal summaries have
        byte-identical canonical JSON -- the determinism tests compare
        exactly this.
        """
        payload = self.to_jsonable()
        for f in dataclasses.fields(self):
            if not f.compare:
                payload.pop(f.name, None)
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
def _suspicion_census(result: RunResult) -> tuple[Optional[float], int, int]:
    """(max current value, total writes, tail writes) of SUSPICIONS*;
    algorithms without such registers report ``None`` / zero."""
    cutoff = TAIL_FRACTION * result.horizon
    writes = suspicion_writes(result.memory)
    tail = sum(t >= cutoff for t, _, _ in writes)
    best: Optional[float] = None
    for reg in result.memory.all_registers():
        if not reg.name.startswith(SUSPICION_PREFIX):
            continue
        value = reg.peek()
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            v = float(value)
            best = v if best is None or v > best else best
    return best, len(writes), tail


def summarize_run(
    result: RunResult,
    *,
    scenario_name: str = "",
    margin: float = 0.0,
    window: float = 100.0,
    wall_time_s: float = 0.0,
    assumption: str = "awb",
) -> RunSummary:
    """Condense a finished run into a :class:`RunSummary`.

    Only consumes the write log, the registers' read counts and the
    leader-sample trace, so it works identically in the low-overhead run
    mode (``log_reads=False``, ``trace_events=False``).  ``assumption``
    is the scenario's declared environment class; it decides which
    theorem verdicts of the embedded :class:`PropertyReport` count as
    violations.

    The run is judged once, by :func:`~repro.props.report.check_properties`;
    the leadership, writer and growth census columns are its measured
    records flattened, never a second derivation.
    """
    props = check_properties(
        result, assumption=assumption, margin=margin, window=window
    )
    leadership, bounded, single, optimal = props.measured
    term = check_termination(result.algorithms, result.crash_plan)
    max_susp, susp_total, susp_tail = _suspicion_census(result)
    # Consistency level + history audit: the emulated backend carries
    # its configured level; shared registers are atomic by construction.
    emu_config = getattr(result.memory, "config", None)
    consistency = getattr(emu_config, "consistency", "atomic")
    audit = result.audit_consistency()
    return RunSummary(
        algorithm=result.algorithm_name,
        scenario=scenario_name,
        seed=result.seed,
        n=result.n,
        horizon=result.horizon,
        stabilized=leadership.holds,
        stabilization_time=leadership.settle_time,
        leader=leadership.leader,
        valid=check_validity(result.trace, result.n),
        termination_ok=term.ok,
        forever_writer_count=len(optimal.forever_writers),
        forever_writers=frozenset(optimal.forever_writers),
        growing_register_count=len(bounded.record_setters),
        single_writer=len(single.tail_writers) == 1,
        total_writes=result.memory.total_writes,
        total_reads=result.memory.total_reads,
        wall_time_s=wall_time_s,
        events_fired=result.sim.events_fired,
        leader_correct=leadership.leader_correct,
        max_suspicion=max_susp,
        suspicion_writes_total=susp_total,
        suspicion_writes_tail=susp_tail,
        property_violations=len(props.violations()),
        properties=dataclasses.replace(props, measured=None),
        memory_backend=getattr(result, "memory_backend", "shared"),
        messages_sent=getattr(getattr(result.memory, "network", None), "total_sent", 0),
        consistency=consistency,
        audit_ok=None if audit is None else audit.ok,
        audit_ops=0 if audit is None else audit.ops_checked,
        audit_violations=0 if audit is None else len(audit.violations),
        retransmissions=getattr(result.memory, "retransmissions", 0),
        recoveries=getattr(result.memory, "recoveries", 0),
        resyncs=getattr(result.memory, "resyncs", 0),
        integrity_violations=getattr(result.memory, "integrity_violations", 0),
        leader_changes=leadership.churn_all,
        write_backs=getattr(result.memory, "write_backs", 0),
        configs_installed=getattr(result.memory, "configs_installed", 0),
        dual_quorum_ops=getattr(result.memory, "dual_quorum_ops", 0),
        transfer_rounds=getattr(result.memory, "transfer_rounds", 0),
    )


__all__ = ["RunSummary", "SUSPICION_PREFIX", "TAIL_FRACTION", "summarize_run"]
