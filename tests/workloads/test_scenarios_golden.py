"""Cross-commit golden record of every scenario the factories build.

``workloads/scenarios.py`` composes each scenario from shared parts
(delay / timer / crash families, link profiles, one composer, one twin
helper).  A refactor of those parts must leave every factory's product
untouched: the same static fields, the same ``ref`` (content hashes and
cached rows key on it) and -- because the ``make_*`` hooks are closures
no field comparison can see into -- the same run.  This file pins, for
every :data:`~repro.workloads.registry.SCENARIO_FACTORIES` entry at its
defaults, for the 72 emulated ``fuzz-cell`` combinations the genome can
reach (3 delays x 3 crashes x 4 link models x 2 consistency levels), for
shared-backend and timeline ``fuzz-cell`` points and for a few
non-default factory branches:

* the static fields and which hooks are set,
* the ``ref``,
* the sha256 of ``RunSummary.canonical_json`` of an Algorithm 1 run at
  seed 0 and a quarter of the horizon,

as generated by the commit that wrote ``golden_scenarios.json``.

Regenerate (only for an *intended* behaviour change)::

    PYTHONPATH=src python tests/workloads/test_scenarios_golden.py \
        > tests/workloads/golden_scenarios.json
"""

from __future__ import annotations

import hashlib
import inspect
import json
from pathlib import Path
from typing import Any, Dict, Iterator, Tuple

from repro.engine.summary import summarize_run
from repro.workloads.registry import SCENARIO_FACTORIES, build_scenario, resolve_algorithm

GOLDEN = Path(__file__).with_name("golden_scenarios.json")

STATIC_FIELDS = (
    "name", "description", "n", "horizon", "sample_interval", "snapshot_interval",
    "margin", "assumption", "memory", "emulation", "algo_config",
    "log_reads", "trace_events",
)
HOOKS = ("make_delay", "make_timers", "make_crash_plan", "make_disk", "scramble")

FUZZ_GRID = {
    "delay": ("uniform", "gst-ramp", "bursts"),
    "crash": ("none", "leader", "minority-cascade"),
    "links": ("sync", "lossy", "gst-ramp", "duplication"),
    "consistency": ("regular", "atomic"),
}

_FAULTS = [
    {"kind": "replica-crash", "at": 150.0, "replica": 1},
    {"kind": "replica-recover", "at": 300.0, "replica": 1},
]
_CHURN = [
    {"kind": "join", "at": 150.0, "replica": 3},
    {"kind": "leave", "at": 300.0, "replica": 0},
]

#: Points off the default / genome grid: ``(label, factory, kwargs)``.
#: ``horizon`` is the *full* horizon (the run uses a quarter of it).
EXTRAS: Tuple[Tuple[str, str, Dict[str, Any]], ...] = (
    ("fuzz-cell/shared", "fuzz-cell", {"delay": "bursts", "crash": "leader"}),
    ("fuzz-cell/shared-n5", "fuzz-cell", {"n": 5, "delay": "gst-ramp", "crash": "minority-cascade"}),
    ("fuzz-cell/faults", "fuzz-cell", {"backend": "emulated", "plan": _FAULTS}),
    ("fuzz-cell/churn", "fuzz-cell", {"backend": "emulated", "membership": _CHURN}),
    ("fuzz-cell/timely-links", "fuzz-cell", {"backend": "emulated", "links": "timely"}),
    ("cascade/t0", "cascade", {"crashes": 0}),
    ("cascade/t3", "cascade", {"crashes": 3, "start": 400.0, "spacing": 30.0}),
    ("ablation/harsh-sqrt", "ablation",
     {"profile": "harsh", "f_kind": "sqrt", "f_scale": 3.0, "chaos_until": 200.0}),
    ("ablation/const", "ablation",
     {"f_kind": "log", "timeout_policy": "const", "const_timeout": 6.0, "jitter": 0.1}),
    ("ablation/sum-awb", "ablation", {"timeout_policy": "sum", "assumption": "awb"}),
    ("nominal-emulated/duplication", "nominal-emulated", {"links": "duplication", "replicas": 5}),
    ("leader-crash-emulated/delta", "leader-crash-emulated", {"delta": 0.5, "crash_at_fraction": 0.2}),
    ("membership-churn/crashes", "membership-churn",
     {"replicas": 5, "crash_times": {"1": 900.0}, "transfer_delay": 60.0}),
    ("random-faults/max2", "random-faults", {"max_failures": 2}),
    ("near-all-cascade/s1", "near-all-cascade", {"survivors": 1, "spacing": 9.0}),
    ("capped-timers/pid2", "capped-timers", {"cap": 2.0, "timely_pid": 2}),
)


def _cells() -> Iterator[Tuple[str, str, Dict[str, Any]]]:
    for name in SCENARIO_FACTORIES:
        yield name, name, {}
    for delay in FUZZ_GRID["delay"]:
        for crash in FUZZ_GRID["crash"]:
            for links in FUZZ_GRID["links"]:
                for level in FUZZ_GRID["consistency"]:
                    yield (
                        f"fuzz-cell/{delay}/{crash}/{links}/{level}",
                        "fuzz-cell",
                        {"backend": "emulated", "delay": delay, "crash": crash,
                         "links": links, "consistency": level},
                    )
    yield from EXTRAS


def _digest(factory: str, kwargs: Dict[str, Any]) -> str:
    default = inspect.signature(SCENARIO_FACTORIES[factory]).parameters["horizon"].default
    short = build_scenario(factory, {**kwargs, "horizon": kwargs.get("horizon", default) * 0.25})
    result = short.run(resolve_algorithm("alg1"), seed=0, log_reads=False, trace_events=False)
    summary = summarize_run(
        result, scenario_name=short.name, margin=short.margin, assumption=short.assumption
    )
    return hashlib.sha256(summary.canonical_json().encode()).hexdigest()


def compute_record() -> Dict[str, Dict[str, Any]]:
    """Build and run every cell; ``{label: {static, hooks, ref, digest}}``."""
    record: Dict[str, Dict[str, Any]] = {}
    for label, factory, kwargs in _cells():
        scenario = build_scenario(factory, kwargs)
        record[label] = {
            "static": {name: getattr(scenario, name) for name in STATIC_FIELDS},
            "hooks": [hook for hook in HOOKS if getattr(scenario, hook) is not None],
            "ref": list(scenario.ref),
            "digest": _digest(factory, kwargs),
        }
    # One JSON round trip so tuples and int-vs-float spellings compare
    # the way the golden file stores them.
    return json.loads(json.dumps(record))


def _golden() -> Dict[str, Dict[str, Any]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _mismatches(record: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    golden = _golden()
    out: Dict[str, Any] = {}
    for label in sorted(set(golden) | set(record)):
        want, got = golden.get(label), record.get(label)
        if want == got:
            continue
        if want is None or got is None:
            out[label] = (want, got)
            continue
        out[label] = {
            key: (want.get(key), got.get(key))
            for key in sorted(set(want) | set(got))
            if want.get(key) != got.get(key)
        }
    return out


def test_golden_covers_every_factory_and_the_genome_grid():
    golden = _golden()
    assert set(SCENARIO_FACTORIES) <= set(golden)
    assert sum(label.count("/") == 4 for label in golden) == 72
    # Key order of the emulation knobs is part of the record too.
    assert list(golden["emulated-lossy"]["static"]["emulation"]) == [
        "replicas", "links", "link_params", "retry_interval",
    ]


def test_golden_record_in_process():
    record = compute_record()
    assert _mismatches(record) == {}
    golden = _golden()
    for label, entry in record.items():
        assert list(entry["static"]["emulation"]) == list(golden[label]["static"]["emulation"])


if __name__ == "__main__":
    print(json.dumps(compute_record(), indent=1))
