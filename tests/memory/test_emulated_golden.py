"""Cross-commit golden digests of the ABD emulation.

The same-commit equivalence tests (plain vs no-op plan, kernel variant
vs kernel variant) cannot see a refactor that changes behaviour
*consistently*.  This file pins sha256 digests of
``RunSummary.canonical_json`` for a grid that walks every protocol path
of :mod:`repro.memory.emulated` -- static majorities, atomic
write-backs, loss and ramp retransmission floods, amnesia resync,
dual-quorum windows with state transfer, the deliberately broken
``single-config`` mode, the ``skip-resync`` protocol mutant
(:mod:`tests.mutants`) and the backoff retry policy -- so a rewrite of
the protocol core must reproduce the exact message and timer order of
the commit that generated ``golden_emulated_digests.json``.

Regenerate (only for an *intended* behaviour change)::

    PYTHONPATH=src python -m tests.memory.test_emulated_golden \
        > tests/memory/golden_emulated_digests.json
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.engine.summary import summarize_run
from repro.workloads.registry import build_scenario, resolve_algorithm
from tests.mutants import AMNESIA_PLAN, MUTANTS

GOLDEN = Path(__file__).with_name("golden_emulated_digests.json")

#: ``(factory, kwargs)`` run for both algorithms at seeds 0 and 1.
#: Horizons are trimmed so the passes (in-process + one subprocess per
#: other kernel variant) stay a small share of tier-1; every plan in the
#: grid still completes with time to settle.
GRID: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("chaos", {"horizon": 6000.0}),
    ("membership-churn", {"horizon": 4000.0}),
    ("membership-churn-atomic", {"horizon": 4000.0}),
    ("membership-canary", {"transition": "single-config"}),
    ("membership-canary", {"transition": "dual-quorum"}),
    ("replica-crash-atomic", {"horizon": 3000.0}),
    ("emulated-lossy-audit", {"horizon": 6000.0}),
    ("emulated-gst-ramp-audit", {"horizon": 4000.0}),
    ("nominal-emulated", {"horizon": 2000.0}),
)

#: Replica 1 recovers while replica 2 is severed, so its resync round
#: has to retransmit until the partition heals.
_RESYNC_UNDER_PARTITION_PLAN = [
    {"kind": "replica-crash", "at": 500.0, "replica": 1},
    {"kind": "partition", "at": 900.0, "replicas": [2]},
    {"kind": "replica-recover", "at": 1000.0, "replica": 1},
    {"kind": "heal", "at": 1500.0, "replicas": [2]},
]

_Cell = Tuple[str, str, Dict[str, Any], Dict[str, Any], Optional[str], str, int]

#: One-off cells: ``(label, factory, kwargs, emulation overrides,
#: protocol mutant or None)``, each run for alg1 at seed 0.
EXTRAS: Tuple[Tuple[str, str, Dict[str, Any], Dict[str, Any], Optional[str]], ...] = (
    ("backoff", "emulated-lossy-audit", {"horizon": 6000.0}, {"retry_policy": "backoff"}, None),
    ("no-resync", "chaos", {"horizon": 4500.0, "plan": AMNESIA_PLAN}, {}, "skip-resync"),
    (
        "resync-under-partition",
        "chaos",
        {"horizon": 3000.0, "plan": _RESYNC_UNDER_PARTITION_PLAN},
        {},
        None,
    ),
    (
        "churn-over-lossy-links",
        "membership-churn",
        {"horizon": 4000.0},
        {"links": "lossy", "link_params": {"loss": 0.2}, "retry_interval": 10.0},
        None,
    ),
)


def _cells() -> Iterator[_Cell]:
    for factory, kwargs in GRID:
        tag = kwargs.get("transition", "")
        for algorithm in ("alg1", "alg2"):
            for seed in (0, 1):
                label = "/".join(filter(None, (factory, tag, algorithm, str(seed))))
                yield label, factory, kwargs, {}, None, algorithm, seed
    for label, factory, kwargs, emulation, mutant in EXTRAS:
        yield label, factory, kwargs, emulation, mutant, "alg1", 0


def compute_digests() -> Dict[str, str]:
    """Run the whole grid; ``{cell label: sha256(canonical_json)}``."""
    digests: Dict[str, str] = {}
    for label, factory, kwargs, emulation, mutant, algorithm, seed in _cells():
        scenario = build_scenario(factory, kwargs)
        overrides: Dict[str, Any] = {"log_reads": False, "trace_events": False}
        if emulation:
            overrides["emulation"] = {**scenario.emulation, **emulation}
        with MUTANTS[mutant].applied() if mutant else contextlib.nullcontext():
            result = scenario.run(resolve_algorithm(algorithm), seed=seed, **overrides)
        summary = summarize_run(
            result,
            scenario_name=scenario.name,
            margin=scenario.margin,
            assumption=scenario.assumption,
        )
        digests[label] = hashlib.sha256(summary.canonical_json().encode()).hexdigest()
    return digests


def _golden() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _mismatches(digests: Dict[str, str]) -> Dict[str, Tuple[Any, Any]]:
    golden = _golden()
    return {
        label: (golden.get(label), digests.get(label))
        for label in sorted(set(golden) | set(digests))
        if golden.get(label) != digests.get(label)
    }


def test_grid_covers_the_slow_paths():
    # The digests only pin what the cells exercise; make sure the grid
    # is not accidentally a fast-path-only grid.
    scenario = build_scenario("chaos", {"horizon": 3000.0, "plan": _RESYNC_UNDER_PARTITION_PLAN})
    memory = scenario.run(resolve_algorithm("alg1"), seed=0, log_reads=False).memory
    assert memory.resyncs == 1 and memory.retransmissions > 0
    scenario = build_scenario("membership-churn", {"horizon": 4000.0})
    memory = scenario.run(
        resolve_algorithm("alg1"),
        seed=0,
        log_reads=False,
        emulation={**scenario.emulation, "links": "lossy", "link_params": {"loss": 0.2},
                   "retry_interval": 10.0},
    ).memory
    assert memory.transfer_rounds == 2 and memory.dual_quorum_ops > 0


def test_golden_digests_in_process():
    assert _mismatches(compute_digests()) == {}


def test_golden_digests_under_both_kernel_variants():
    # Imported here: this file is also run as a script, without tests/ on the path.
    from tests.conftest import run_under_other_kernel_variants

    records = run_under_other_kernel_variants(Path(__file__).resolve())
    for variant, record in records.items():
        assert _mismatches(record) == {}, f"REPRO_KERNEL={variant}"


if __name__ == "__main__":
    print(json.dumps(compute_digests(), indent=1, sort_keys=True))
