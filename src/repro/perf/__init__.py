"""``repro perf``: a front end over the repo benchmark, measuring nothing itself.

The benchmark is the contract in ``BENCHMARK.json`` at the checkout
root: the ``command`` to run (``python3 bench/run.py``), the workloads
and the ``end_to_end`` table (each metric's ``better`` direction and
``bound``, the share by which it may get worse).  This module runs that
command, keeps the *result object* it prints as its last line ::

    {"<workload>": {"correct": ..., "attempted": ..., "failed": ...,
                    "metrics": {"<name>": {"value": ..., "unit": ...}},
                    "digest": ..., "events": ...}}

and compares two such objects with the contract's own bounds, so the
regression threshold exists in exactly one place.  Glossary, method and
the committed numbers: ``bench/README.md`` and ``bench/BASELINE.json``.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.paths import repo_root

#: The benchmark contract, relative to the checkout root.
CONTRACT_FILENAME = "BENCHMARK.json"

Result = Dict[str, Dict[str, Any]]


def load_contract() -> Tuple[Path, Dict[str, Any]]:
    """``(checkout root, parsed BENCHMARK.json)``; the benchmark lives
    in the checkout, so an install outside one has nothing to run."""
    root = repo_root()
    if root is None:
        raise ValueError(f"not inside a checkout, so there is no {CONTRACT_FILENAME} to run")
    return root, json.loads((root / CONTRACT_FILENAME).read_text(encoding="utf-8"))


def run_benchmark(command: Sequence[str], root: Path) -> Tuple[int, str]:
    """Run ``command`` from ``root``, streaming its standard output;
    returns its exit status and the last non-blank line it printed."""
    last = ""
    with subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE, text=True) as proc:
        assert proc.stdout is not None
        for line in proc.stdout:
            print(line, end="", flush=True)
            if line.strip():
                last = line
    return proc.returncode, last


def parse_result(text: str, source: str) -> Result:
    """The result object in ``text``; ``ValueError`` naming ``source``
    when it is not JSON or not shaped like one."""
    try:
        result = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"{source}: not JSON ({exc})") from None
    if not (isinstance(result, dict) and result and all(map(_is_entry, result.values()))):
        raise ValueError(
            f"{source}: not a benchmark result object "
            "({workload: {attempted, failed, metrics: {name: {value}}}})"
        )
    return result


def _is_entry(entry: Any) -> bool:
    return (
        isinstance(entry, dict)
        and isinstance(entry.get("attempted"), int)
        and isinstance(entry.get("failed"), int)
        and isinstance(entry.get("metrics"), dict)
        and all(
            isinstance(metric, dict) and isinstance(metric.get("value"), (int, float))
            for metric in entry["metrics"].values()
        )
    )


def load_result(path: str) -> Result:
    """Read a result object saved by ``repro perf --out``."""
    return parse_result(Path(path).read_text(encoding="utf-8"), path)


def compare_results(
    new: Result, base: Result, end_to_end: Sequence[Mapping[str, Any]]
) -> List[str]:
    """One line per regression of ``new`` against ``base``.

    The driver's rule: a workload of ``base`` must still be there, its
    failed share must not grow, and no ``end_to_end`` metric ``base``
    reports may be missing or worse by more than the metric's bound.
    """
    out: List[str] = []
    for workload, old in base.items():
        cur = new.get(workload)
        if cur is None:
            out.append(f"{workload}: workload missing from the new result")
            continue
        if cur["failed"] * max(old["attempted"], 1) > old["failed"] * max(cur["attempted"], 1):
            out.append(
                f"{workload}: failed share grew, {old['failed']}/{old['attempted']}"
                f" -> {cur['failed']}/{cur['attempted']}"
            )
        for metric in end_to_end:
            name = metric["name"]
            if name not in old["metrics"]:
                continue
            if name not in cur["metrics"]:
                out.append(f"{workload} {name}: metric missing from the new result")
                continue
            before, after = old["metrics"][name]["value"], cur["metrics"][name]["value"]
            worse = after - before if metric["better"] == "lower" else before - after
            if before > 0 and worse / before > metric["bound"]:
                out.append(
                    f"{workload} {name}: {before:.6g} -> {after:.6g} {metric['unit']}, "
                    f"{worse / before:.1%} worse (bound {metric['bound']:.0%})"
                )
    return out
