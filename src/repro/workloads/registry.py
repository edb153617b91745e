"""Name registries for algorithms and scenario factories.

The CLI and the experiment engine both need to turn *strings* into live
objects: the CLI because users type names, the engine because worker
processes receive only picklable payloads and must rebuild their cell
from scratch.  This module is the single source of truth for both, and
each scenario row also declares whether ``repro check`` audits it: the
default audit suite is derived from the rows, never listed by hand.

Anything not in the registries can still be referenced by a
``module:qualname`` import path (e.g. a downstream experiment's custom
algorithm class), so the engine is not limited to the built-ins.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.core.algorithm1 import WriteEfficientOmega
from repro.core.algorithm2 import BoundedOmega
from repro.core.baseline import EventuallySynchronousOmega
from repro.core.interfaces import OmegaAlgorithm
from repro.core.variants import MultiWriterOmega, StepCounterOmega
from repro.workloads import scenarios as scen_mod
from repro.workloads.scenarios import Scenario

ALGORITHMS: Dict[str, Type[OmegaAlgorithm]] = {
    "alg1": WriteEfficientOmega,
    "alg2": BoundedOmega,
    "alg1-nwnr": MultiWriterOmega,
    "alg1-no-timer": StepCounterOmega,
    "baseline": EventuallySynchronousOmega,
}

#: The ``repro check`` status of an audited registry row (an exempt row
#: carries the reason it is exempt instead).
AUDITED: Optional[str] = None

#: Every scenario factory by name, with its ``repro check`` status:
#: :data:`AUDITED`, or the reason the default suite leaves it out.  The
#: status is a required half of the row, so a factory cannot be
#: registered without deciding whether the theorems are audited on it.
SCENARIO_REGISTRY: Dict[str, Tuple[Callable[..., Scenario], Optional[str]]] = {
    "nominal": (scen_mod.nominal, "baseline environment; strictly dominated by the suite"),
    "chaotic-timers": (scen_mod.chaotic_timers, "early-chaos variant of awb-only"),
    "leader-crash": (scen_mod.leader_crash, "subsumed by leader-storm's repeated crashes"),
    "cascade": (scen_mod.cascade, "subsumed by near-all-cascade at the fault edge"),
    "all-but-one": (scen_mod.all_but_one, "n-1 crashes: T2/T4 trivial, nothing extra audited"),
    "awb-only": (scen_mod.awb_only, AUDITED),
    "ev-sync": (scen_mod.ev_sync, "eventually-synchronous delays: weaker than gst-ramp"),
    "scrambled": (scen_mod.scrambled, "scheduler scrambling is on in every suite cell"),
    "random-faults": (scen_mod.random_faults, "unpinned random faults; suite uses pinned storms"),
    "san": (scen_mod.san, "disk-latency (SAN) study cell, not a theorem stressor"),
    "capped-timers": (scen_mod.capped_timers, "deliberately violates AWB (negative scenario)"),
    "slow-leader-awb": (scen_mod.slow_leader_awb, "Section-5 trade-off study cell"),
    "ablation": (scen_mod.ablation, "algorithm-ablation study cell"),
    # The adversarial suite: crash storms, GST ramps, asynchrony bursts,
    # near-(n-1) cascades and timely-identity churn, each satisfying AWB
    # by construction -- so every claimed theorem must hold.
    "leader-storm": (scen_mod.leader_storm, AUDITED),
    "gst-ramp": (scen_mod.gst_ramp, AUDITED),
    "async-bursts": (scen_mod.async_bursts, AUDITED),
    "near-all-cascade": (scen_mod.near_all_cascade, AUDITED),
    "timely-churn": (scen_mod.timely_churn, AUDITED),
    # The emulated-backend family: the registers realized by the ABD
    # quorum emulation over message passing (repro.memory.emulated).
    # The -audit cells arm the operation recorder: retransmission races
    # over lossy links, and duplicate-reply floods through slow ramp
    # links, must never fake a quorum or a stale read.
    "nominal-emulated": (scen_mod.nominal_emulated, AUDITED),
    "leader-crash-emulated": (
        scen_mod.leader_crash_emulated, "subsumed by replica-crash + leader-storm"
    ),
    "replica-crash": (scen_mod.replica_crash, AUDITED),
    "emulated-lossy": (scen_mod.emulated_lossy, "non-audited twin of emulated-lossy-audit"),
    "emulated-lossy-audit": (scen_mod.emulated_lossy_audit, AUDITED),
    "emulated-gst-ramp": (scen_mod.emulated_gst_ramp, "emulated twin of the shared gst-ramp cell"),
    "emulated-gst-ramp-audit": (scen_mod.emulated_gst_ramp_audit, AUDITED),
    # The atomic consistency level: write-back reads with the recorded
    # history audited by the interval-order checkers.
    "nominal-emulated-atomic": (scen_mod.nominal_emulated_atomic, AUDITED),
    "replica-crash-atomic": (scen_mod.replica_crash_atomic, AUDITED),
    # Dynamic replica membership: the emulation reconfigures mid-run
    # through dual-quorum transition windows (repro.memory.membership);
    # the canary is the pinned single-config negative control.
    "membership-churn": (scen_mod.membership_churn, AUDITED),
    "membership-churn-atomic": (scen_mod.membership_churn_atomic, AUDITED),
    "membership-canary": (
        scen_mod.membership_canary, "deliberately broken negative control (CI runs it red)"
    ),
    # Fault-injection campaigns: a repro.faults timeline threaded down
    # to the emulation (the `repro chaos` workhorse cell).
    "chaos": (scen_mod.chaos, AUDITED),
    # Coverage-guided fuzzing: the cell a ScenarioGenome pins down
    # (the `repro fuzz` workhorse; pinned repros replay through it).
    "fuzz-cell": (scen_mod.fuzz_cell, "genome-pinned fuzz cell; `repro fuzz` audits the space"),
}

#: Scenario name -> factory: the rows of :data:`SCENARIO_REGISTRY`
#: without their status.
SCENARIO_FACTORIES: Dict[str, Callable[..., Scenario]] = {
    name: factory for name, (factory, _status) in SCENARIO_REGISTRY.items()
}

#: The default suite of ``repro check``: every audited row, in registry
#: order.
CHECK_SCENARIOS: List[str] = [
    name for name, (_factory, status) in SCENARIO_REGISTRY.items() if status is AUDITED
]


def _import_target(target: str) -> Any:
    """Resolve a ``module:qualname`` reference."""
    module_name, _, qualname = target.partition(":")
    if not module_name or not qualname:
        raise KeyError(f"not an importable reference: {target!r}")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def algorithm_target(algorithm_cls: Type[OmegaAlgorithm]) -> str:
    """The stable reference for an algorithm class.

    Prefers the short registry name (survives module moves); falls back
    to the import path for classes outside the registry.
    """
    for name, cls in ALGORITHMS.items():
        if cls is algorithm_cls:
            return name
    return f"{algorithm_cls.__module__}:{algorithm_cls.__qualname__}"


def resolve_algorithm(target: str) -> Type[OmegaAlgorithm]:
    """Registry name or ``module:qualname`` -> algorithm class."""
    if target in ALGORITHMS:
        return ALGORITHMS[target]
    cls = _import_target(target)
    if not (isinstance(cls, type) and issubclass(cls, OmegaAlgorithm)):
        raise TypeError(f"{target!r} is not an OmegaAlgorithm subclass")
    return cls


def resolve_scenario_factory(name: str) -> Callable[..., Scenario]:
    """Factory name (dashed or underscored) or import path -> factory."""
    dashed = name.replace("_", "-")
    if dashed in SCENARIO_FACTORIES:
        return SCENARIO_FACTORIES[dashed]
    return _import_target(name)


def build_scenario(factory: str, kwargs: Dict[str, Any] | None = None) -> Scenario:
    """Instantiate a scenario from its (factory, kwargs) reference."""
    return resolve_scenario_factory(factory)(**(kwargs or {}))


__all__ = [
    "ALGORITHMS",
    "AUDITED",
    "CHECK_SCENARIOS",
    "SCENARIO_FACTORIES",
    "SCENARIO_REGISTRY",
    "algorithm_target",
    "build_scenario",
    "resolve_algorithm",
    "resolve_scenario_factory",
]
