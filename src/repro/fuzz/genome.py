"""Typed scenario genomes: one point of the full scenario space.

A :class:`ScenarioGenome` composes every axis the repo's workloads vary
-- algorithm, memory backend, membership size, delay model, crash plan,
replica count, link model, consistency level, and a
:mod:`repro.faults` timeline -- into one frozen, JSON-round-trippable
value object (the fuzz analogue of :class:`~repro.faults.plan.FaultPlan`).
The coverage-guided fuzzer (:mod:`repro.fuzz.loop`) mutates genomes one
axis at a time (:mod:`repro.fuzz.mutate`) and shrinks violating ones
back toward :data:`BASELINE_GENOME` (:mod:`repro.fuzz.shrink`), so the
genome's :meth:`~ScenarioGenome.complexity` -- its mutation distance
from the baseline -- is the fuzzer's size metric.

Axis vocabularies are deliberately *conservative*: every member keeps
the environment inside the paper's AWB assumption (and the emulation
correct by construction), so on a clean tree the oracles must pass on
every reachable genome.  Known-negative axes -- ``corruption`` links,
which deliberately break the Theorem 1 audit, and the sub-AWB timer
families -- are excluded; they stay reachable by hand-built scenarios,
not by the fuzzer.

Horizons are *derived*, not a genome axis: substrate choices that slow
every register access (emulation, retransmitting link models, atomic
write-back reads) scale the horizon up so "did not stabilize" keeps
meaning a bug rather than an under-provisioned run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.faults.plan import FaultEvent, FaultPlan
from repro.memory.membership import MembershipEvent, MembershipPlan
from repro.workloads.scenarios import FUZZ_CRASHES, FUZZ_DELAYS

#: Algorithms the fuzzer composes.  Algorithm 2's hand-shake needs
#: roughly 10x the horizon of the Algorithm 1 family under identical
#: timers (see EXPERIMENTS.md), so it keeps its own dedicated suites
#: (``repro check``, the backend-equivalence cells) instead of inflating
#: every fuzz batch's horizon.
GENOME_ALGORITHMS: Tuple[str, ...] = ("alg1", "alg1-nwnr", "alg1-no-timer")

#: Memory backends (mirrors :data:`repro.memory.backend.BACKENDS`).
GENOME_BACKENDS: Tuple[str, ...] = ("shared", "emulated")

#: Delay-model families and process-crash plans: exactly the parts the
#: ``fuzz-cell`` factory can compose, in the tables' declaration order
#: (``mutate``'s RNG draws index these tuples).
GENOME_DELAYS: Tuple[str, ...] = tuple(FUZZ_DELAYS)
GENOME_CRASHES: Tuple[str, ...] = tuple(FUZZ_CRASHES)

#: Replica-fabric link models (emulated backend only).  ``corruption``
#: is excluded: it is the known-negative adversary the Theorem 1 audit
#: is *expected* to fail under.
GENOME_LINKS: Tuple[str, ...] = ("sync", "lossy", "gst-ramp", "duplication")

#: Consistency levels of the emulated registers.
GENOME_CONSISTENCY: Tuple[str, ...] = ("regular", "atomic")

#: Membership sizes.
GENOME_NS: Tuple[int, ...] = (3, 4, 5)

#: Replica counts (odd, so majorities are strict).
GENOME_REPLICAS: Tuple[int, ...] = (3, 5)

#: Base horizon every derived horizon scales from (the shared-backend
#: run length).  The fuzz loop's ``horizon`` knob overrides it.
DEFAULT_BASE_HORIZON = 3000.0


class GenomeAxis(NamedTuple):
    """One row of :data:`GENOME_AXES`."""

    #: The legal values; empty for an open axis (the two timelines,
    #: which validate through their plan class).
    vocabulary: Tuple[Any, ...] = ()
    #: True when the axis only exists on the emulated backend: a
    #: shared-backend genome must keep it at its baseline value.
    emulated_only: bool = False
    #: Timeline axes: the plan class (:class:`FaultPlan` /
    #: :class:`MembershipPlan`) their event tuple validates and
    #: serializes through.
    plan: Optional[Any] = None


#: Every :class:`ScenarioGenome` axis, in field order.  Validation, the
#: shared-backend canonical form, the JSON round trip and the
#: pick-another-value mutations (:mod:`repro.fuzz.mutate`) all derive
#: from this table, so an axis is declared here and as a dataclass
#: field (name, type, baseline value) -- nowhere else.
GENOME_AXES: Dict[str, GenomeAxis] = {
    "algorithm": GenomeAxis(GENOME_ALGORITHMS),
    "backend": GenomeAxis(GENOME_BACKENDS),
    "n": GenomeAxis(GENOME_NS),
    "delay": GenomeAxis(GENOME_DELAYS),
    "crash": GenomeAxis(GENOME_CRASHES),
    "replicas": GenomeAxis(GENOME_REPLICAS, emulated_only=True),
    "links": GenomeAxis(GENOME_LINKS, emulated_only=True),
    "consistency": GenomeAxis(GENOME_CONSISTENCY, emulated_only=True),
    "fault_plan": GenomeAxis(emulated_only=True, plan=FaultPlan),
    "membership_plan": GenomeAxis(emulated_only=True, plan=MembershipPlan),
}

#: The table's three readings, precomputed (a genome is validated on
#: every construction, i.e. on every mutation step).
_VOCABULARIES = tuple((n, a.vocabulary) for n, a in GENOME_AXES.items() if a.vocabulary)
_EMULATED_ONLY = tuple(n for n, a in GENOME_AXES.items() if a.emulated_only)
_TIMELINES = tuple((n, a.plan) for n, a in GENOME_AXES.items() if a.plan is not None)

#: Two deleted axes, at the one value every fuzzer-made genome had.  The
#: content key still hashes them: keys order the corpus, the corpus order
#: picks mutation parents, so keeping the keys keeps every fuzz
#: trajectory and corpus file name as it was.
_KEY_SALT: Dict[str, Any] = {"resync": True, "transition": "dual-quorum"}


@dataclass(frozen=True)
class ScenarioGenome:
    """One scenario-space point, as plain frozen data.

    The defaults *are* the baseline genome: Algorithm 1 on shared
    memory, three processes, uniform delays, fault-free.  Validation
    canonicalizes the space -- a shared-backend genome must keep every
    emulated-only axis at its baseline value, so two genomes that would
    build identical scenarios are identical values (the corpus dedup
    relies on this).
    """

    algorithm: str = "alg1"
    backend: str = "shared"
    n: int = 3
    delay: str = "uniform"
    crash: str = "none"
    replicas: int = 3
    links: str = "sync"
    consistency: str = "regular"
    fault_plan: Tuple[FaultEvent, ...] = ()
    #: Dynamic-membership timeline of the emulated replica set
    #: (:mod:`repro.memory.membership`); empty = fixed membership.
    membership_plan: Tuple[MembershipEvent, ...] = ()

    def __post_init__(self) -> None:
        for name, vocabulary in _VOCABULARIES:
            value = getattr(self, name)
            if value in vocabulary:
                continue
            if isinstance(vocabulary[0], int):
                raise ValueError(
                    f"genome {name} must be one of {list(vocabulary)}, got {value}"
                )
            raise ValueError(
                f"unknown genome {name} {value!r}; choose from {list(vocabulary)}"
            )
        if self.backend == "shared":
            dirty = self.off_baseline_emulated_axes()
            if dirty:
                raise ValueError(
                    f"shared-backend genome must keep emulated axes at baseline; "
                    f"off-baseline: {dirty}"
                )
        for name, plan in _TIMELINES:
            events = getattr(self, name)
            if not events:
                continue
            if self.links != "sync":
                raise ValueError(
                    f"{name.replace('_plan', ' plans')} are defined over the "
                    f"deterministic sync fabric; got links={self.links!r}"
                )
            plan(events).validate(self.replicas)

    def off_baseline_emulated_axes(self) -> List[str]:
        """The emulated-only axes away from their baseline value (none:
        the genome differs from a shared-memory one by ``backend`` alone)."""
        return [
            name for name in _EMULATED_ONLY if getattr(self, name) != _BASELINE_VALUES[name]
        ]

    def on_shared_memory(self) -> "ScenarioGenome":
        """This genome dropped back to the shared backend, which resets
        every emulated-only axis (validation requires them at baseline
        there)."""
        reset = {name: _BASELINE_VALUES[name] for name in _EMULATED_ONLY}
        return replace(self, backend="shared", **reset)

    # ------------------------------------------------------------------
    def horizon(self, base: float = DEFAULT_BASE_HORIZON) -> float:
        """The derived run horizon for this genome.

        Substrate axes that slow every register access scale it up:
        the ABD emulation adds a quorum round trip per access (x1.5),
        retransmitting link models stretch the round trips (x4/3), and
        atomic write-back reads double the read cost (x1.5).
        """
        h = base
        if self.backend == "emulated":
            h *= 1.5
            if self.links in ("lossy", "gst-ramp"):
                h *= 4.0 / 3.0
            if self.consistency == "atomic":
                h *= 1.5
        return h

    def scenario_kwargs(self, base: float = DEFAULT_BASE_HORIZON) -> Dict[str, Any]:
        """The ``fuzz-cell`` factory kwargs this genome pins down.

        Plain JSON data (the fault plan in its list-of-dicts form), so
        the payload travels through :class:`~repro.engine.spec.ScenarioRef`
        content hashes and replays via
        :func:`repro.workloads.registry.build_scenario`.
        """
        plan: Optional[List[Dict[str, Any]]] = None
        if self.fault_plan:
            plan = FaultPlan(self.fault_plan).to_jsonable()
        membership: Optional[List[Dict[str, Any]]] = None
        if self.membership_plan:
            membership = MembershipPlan(self.membership_plan).to_jsonable()
        return {
            "n": self.n,
            "horizon": self.horizon(base),
            "delay": self.delay,
            "crash": self.crash,
            "backend": self.backend,
            "replicas": self.replicas,
            "links": self.links,
            "consistency": self.consistency,
            "plan": plan,
            "membership": membership,
        }

    def complexity(self) -> int:
        """Mutation distance from :data:`BASELINE_GENOME`.

        One step per axis that differs from the baseline, plus one step
        per fault group (each group is one injected disturbance).  The
        shrinker minimizes exactly this.
        """
        steps = 0
        baseline = BASELINE_GENOME
        for f in fields(self):
            if f.name == "fault_plan":
                continue
            if getattr(self, f.name) != getattr(baseline, f.name):
                steps += 1
        steps += len(FaultPlan(self.fault_plan).groups())
        return steps  # membership_plan counts via the field loop

    # ------------------------------------------------------------------
    def to_jsonable(self) -> Dict[str, Any]:
        """The plain-JSON form (the corpus file payload)."""
        out = {name: getattr(self, name) for name in GENOME_AXES}
        for name, plan in _TIMELINES:
            out[name] = plan(out[name]).to_jsonable()
        return out

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, Any]) -> "ScenarioGenome":
        """Rebuild a genome from :meth:`to_jsonable` output."""
        init = dict(payload)
        unknown = set(init) - set(GENOME_AXES)
        if unknown:
            raise ValueError(f"unknown genome key(s): {sorted(unknown)}")
        for name, plan in _TIMELINES:
            init[name] = plan.from_jsonable(init.get(name)).events
        return cls(**init)

    def key(self) -> str:
        """Stable content digest (corpus file names, dedup sets)."""
        payload = {**_KEY_SALT, **self.to_jsonable()}
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]

    def with_plan(self, plan: FaultPlan) -> "ScenarioGenome":
        """This genome with its fault-plan axis replaced."""
        return replace(self, fault_plan=plan.events)


#: Baseline value of every axis: the dataclass defaults.
_BASELINE_VALUES: Dict[str, Any] = {f.name: f.default for f in fields(ScenarioGenome)}

#: The origin of the mutation space: Algorithm 1, shared memory, three
#: processes, uniform delays, fault-free.
BASELINE_GENOME = ScenarioGenome()


__all__ = [
    "BASELINE_GENOME",
    "DEFAULT_BASE_HORIZON",
    "GENOME_ALGORITHMS",
    "GENOME_AXES",
    "GENOME_BACKENDS",
    "GENOME_CONSISTENCY",
    "GENOME_CRASHES",
    "GENOME_DELAYS",
    "GENOME_LINKS",
    "GENOME_NS",
    "GENOME_REPLICAS",
    "GenomeAxis",
    "ScenarioGenome",
]
