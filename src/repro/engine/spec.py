"""Declarative experiment specifications.

An :class:`ExperimentSpec` names an (algorithm x scenario x seed) grid
without holding any live objects: algorithms are referenced by registry
name or ``module:qualname`` import path, scenarios by the factory that
builds them plus its keyword arguments.  That makes a spec

* **picklable** -- the parallel driver ships only primitives to worker
  processes and each worker rebuilds its cell from scratch;
* **hashable** -- :meth:`ExperimentSpec.content_hash` is a stable
  digest of the canonical JSON payload, used to key the JSONL result
  cache under ``results/engine/``.

Construction normally goes through :meth:`ExperimentSpec.from_objects`,
which accepts the same ``{label: AlgorithmClass}`` /
``[Scenario, ...]`` arguments as :func:`repro.workloads.sweep.run_matrix`
and derives the references automatically (scenario factories attach a
``ref`` to every instance they build; see
:mod:`repro.workloads.scenarios`).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.memory.backend import BACKENDS
from repro.memory.emulated import CONSISTENCY_LEVELS
from repro.memory.membership import MEMBERSHIP_MODES

#: Bumped whenever the payload layout or the RunSummary fields change in
#: a way that invalidates previously cached results.
#: 2: RunSummary embeds the Theorem 1-4 PropertyReport.
#: 3: specs carry a memory-backend axis; RunSummary records the backend
#:    and the emulation's message count.
#: 4: specs carry a consistency axis; RunSummary records the consistency
#:    level and the history-audit outcome.
#: 5: scenarios can carry fault-plan timelines (repro.faults) and retry
#:    policies; RunSummary records the resilience counters
#:    (retransmissions, recoveries, resyncs, integrity_violations).
#: 6: RunSummary records the fuzz coverage censuses (leader_changes,
#:    write_backs).
#: 7: specs carry a membership axis (dynamic replica membership;
#:    repro.memory.membership); RunSummary records the reconfiguration
#:    counters (configs_installed, dual_quorum_ops, transfer_rounds).
SPEC_FORMAT = 7

#: The spec-level override axes, declared once: field name -> (noun for
#: error messages, legal values, ``repro run|sweep --<axis>`` help).
#: Each is an :class:`ExperimentSpec` field defaulting to ``None``
#: ("leave every scenario's own choice in force"); validation, the tail
#: of the payload, the per-cell worker options and the CLI flags derive
#: from this table, and
#: :meth:`repro.workloads.scenarios.Scenario.overridden` is the one
#: transform that applies a set value to a scenario.
OVERRIDE_AXES: Dict[str, Tuple[str, Tuple[str, ...], str]] = {
    "memory": (
        "memory backend",
        tuple(sorted(BACKENDS)),
        "memory backend override (default: the scenario's own choice)",
    ),
    "consistency": (
        "consistency level",
        CONSISTENCY_LEVELS,
        "consistency level of the emulated registers ('atomic' adds the ABD "
        "write-back phase to every read); only valid on cells that run the "
        "emulated backend",
    ),
    "membership": (
        "membership mode",
        MEMBERSHIP_MODES,
        "dynamic-membership mode of the emulated replica set ('churn' installs "
        "the canonical replace-one-replica reconfiguration, 'none' strips the "
        "scenario's membership plan); only valid on cells that run the "
        "emulated backend",
    ),
}


def check_overrides(overrides: Mapping[str, Optional[str]]) -> None:
    """Refuse a set value outside its axis's vocabulary, naming the
    vocabulary (``None`` = not overridden)."""
    for axis, value in overrides.items():
        noun, vocabulary, _help = OVERRIDE_AXES[axis]
        if value is not None and value not in vocabulary:
            raise ValueError(f"unknown {noun} {value!r}; choose from {list(vocabulary)}")


def _canonical(payload: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace drift)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class ScenarioRef:
    """A scenario as ``factory name + keyword arguments``.

    ``kwargs`` is stored as a sorted tuple of items so the ref is
    hashable and its JSON payload is canonical; values must be
    JSON-serializable (every factory in
    :mod:`repro.workloads.scenarios` takes only numbers, strings and
    ``None``).
    """

    factory: str
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, factory: str, kwargs: Mapping[str, Any] | None = None) -> "ScenarioRef":
        """Build a ref, validating that ``kwargs`` is JSON-serializable."""
        items = tuple(sorted((kwargs or {}).items()))
        json.dumps(dict(items))  # fail fast on unserializable values
        return cls(factory=factory, kwargs=items)

    def kwargs_dict(self) -> Dict[str, Any]:
        """The keyword arguments as a plain dict."""
        return dict(self.kwargs)

    def key(self) -> str:
        """Stable identifier used in cell keys and the result store."""
        return f"{self.factory}({_canonical(self.kwargs_dict())})"

    def to_payload(self) -> Dict[str, Any]:
        """The JSON form stored in spec payloads."""
        return {"factory": self.factory, "kwargs": self.kwargs_dict()}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ScenarioRef":
        """Rebuild a ref from its JSON form."""
        return cls.make(payload["factory"], payload.get("kwargs") or {})


@dataclass(frozen=True)
class AlgorithmRef:
    """An algorithm as ``display label + import target``.

    ``target`` is either a name in
    :data:`repro.workloads.registry.ALGORITHMS` or a
    ``module:qualname`` path; ``label`` is what the resulting rows carry
    in their ``algorithm`` column (benches use richer labels such as
    ``"alg1 (Fig 2)"``).
    """

    label: str
    target: str

    def to_payload(self) -> Dict[str, Any]:
        """The JSON form stored in spec payloads."""
        return {"label": self.label, "target": self.target}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "AlgorithmRef":
        """Rebuild a ref from its JSON form."""
        return cls(label=payload["label"], target=payload["target"])


@dataclass(frozen=True)
class Cell:
    """One grid point: (algorithm, scenario, seed)."""

    algorithm: AlgorithmRef
    scenario: ScenarioRef
    seed: int

    @property
    def key(self) -> Tuple[str, str, int]:
        """The cell's identity in caches and reports."""
        return (self.algorithm.label, self.scenario.key(), self.seed)


@dataclass(frozen=True)
class ExperimentSpec:
    """A named, content-addressed experiment grid.

    Parameters
    ----------
    name:
        Human-readable experiment id; prefixes the cache file name.
    algorithms / scenarios / seeds:
        The grid axes.
    window:
        Tail-window width forwarded to the census summarizer (positive
        and finite).
    fast:
        When true (the default) workers run cells in the low-overhead
        mode (``log_reads=False``, ``trace_events=False``); summaries
        are identical either way because the summarizer only consumes
        the write log, the aggregate counters and the sample trace.
    memory:
        Memory-backend override for every cell
        (:data:`repro.memory.backend.BACKENDS`).  ``None`` -- the
        default -- leaves each scenario's own backend choice in force
        (so the ``*-emulated`` factories still emulate); ``"emulated"``
        forces the ABD emulation onto every cell (the ``repro sweep
        --memory emulated`` path) and ``"shared"`` forces the shared
        backend even onto emulated-native scenarios.
    consistency:
        Consistency-level override for every *emulated* cell
        (:data:`repro.memory.emulated.CONSISTENCY_LEVELS`).  ``None``
        -- the default -- leaves each scenario's own level in force;
        ``"atomic"``/``"regular"`` force the level onto every cell that
        runs the emulated backend (the ``repro sweep --consistency``
        path).  Cells on the shared backend ignore it (their registers
        are atomic by construction).
    membership:
        Dynamic-membership override for every *emulated* cell
        (:data:`repro.memory.membership.MEMBERSHIP_MODES`).  ``None``
        -- the default -- leaves each scenario's own membership plan in
        force; ``"churn"`` forces the canonical replace-one-replica
        reconfiguration (scaled to each cell's horizon) onto every
        emulated cell and ``"none"`` strips membership plans (the
        churn-free control).  Cells on the shared backend ignore it.
    """

    name: str
    algorithms: Tuple[AlgorithmRef, ...]
    scenarios: Tuple[ScenarioRef, ...]
    seeds: Tuple[int, ...]
    window: float = 100.0
    fast: bool = True
    memory: Optional[str] = None
    consistency: Optional[str] = None
    membership: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.algorithms or not self.scenarios or not self.seeds:
            raise ValueError("spec needs at least one algorithm, scenario and seed")
        if not (math.isfinite(self.window) and self.window > 0):
            raise ValueError(f"window must be positive and finite, got {self.window!r}")
        check_overrides(self.overrides())
        labels = [a.label for a in self.algorithms]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate algorithm labels in spec: {labels}")

    # ------------------------------------------------------------------
    def cells(self) -> List[Cell]:
        """The grid in deterministic scenario-major order.

        Matches the historical ``run_matrix`` nesting (scenario, then
        algorithm, then seed) so engine rows line up with legacy rows.
        """
        return [
            Cell(algorithm=alg, scenario=scen, seed=seed)
            for scen in self.scenarios
            for alg in self.algorithms
            for seed in self.seeds
        ]

    def size(self) -> int:
        """Number of grid cells."""
        return len(self.algorithms) * len(self.scenarios) * len(self.seeds)

    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """The canonical JSON form (hashed by :meth:`content_hash`)."""
        return {
            "format": SPEC_FORMAT,
            "name": self.name,
            "algorithms": [a.to_payload() for a in self.algorithms],
            "scenarios": [s.to_payload() for s in self.scenarios],
            "seeds": list(self.seeds),
            "window": self.window,
            "fast": self.fast,
            **self.overrides(),
        }

    def overrides(self) -> Dict[str, Optional[str]]:
        """Every :data:`OVERRIDE_AXES` value of this spec, by axis name
        (``None`` = not overridden): the tail of the payload and the
        keywords the driver hands each cell's worker."""
        return {axis: getattr(self, axis) for axis in OVERRIDE_AXES}

    def content_hash(self) -> str:
        """Stable 16-hex-digit digest of the grid content.

        The ``name`` is cosmetic and excluded, so renaming an experiment
        does not orphan its cache.
        """
        payload = self.to_payload()
        payload.pop("name")
        return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()[:16]

    # ------------------------------------------------------------------
    @classmethod
    def from_objects(
        cls,
        name: str,
        algorithms: Mapping[str, type],
        scenarios: Sequence[Any],
        seeds: Iterable[int],
        **options: Any,
    ) -> "ExperimentSpec":
        """Build a spec from live objects (the ``run_matrix`` arguments);
        ``options`` are the remaining fields (``window``, ``fast`` and
        the override axes), by name.

        Every scenario must carry a ``ref`` attribute -- a
        ``(factory_name, kwargs)`` tuple attached by the factory
        decorator in :mod:`repro.workloads.scenarios`.  Hand-built
        :class:`~repro.workloads.scenarios.Scenario` instances (no
        ``ref``) cannot cross process boundaries; callers fall back to
        the in-process path for those.
        """
        from repro.workloads.registry import algorithm_target

        algo_refs = tuple(
            AlgorithmRef(label=label, target=algorithm_target(algo_cls))
            for label, algo_cls in algorithms.items()
        )
        scen_refs = []
        for scen in scenarios:
            ref = getattr(scen, "ref", None)
            if ref is None:
                raise ValueError(
                    f"scenario {getattr(scen, 'name', scen)!r} has no factory ref; "
                    "build it through a repro.workloads.scenarios factory or run it "
                    "in-process"
                )
            scen_refs.append(ScenarioRef.make(ref[0], ref[1]))
        return cls(
            name=name,
            algorithms=algo_refs,
            scenarios=tuple(scen_refs),
            seeds=tuple(int(s) for s in seeds),
            **options,
        )


__all__ = [
    "AlgorithmRef",
    "Cell",
    "ExperimentSpec",
    "OVERRIDE_AXES",
    "SPEC_FORMAT",
    "ScenarioRef",
    "check_overrides",
]
