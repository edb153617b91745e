#!/usr/bin/env python3
"""The repo benchmark: ``python3 bench/run.py [options]``.

Runs the selected workloads (all seven by default) and prints every
metric by name with its unit; the last line of standard output is one
JSON object.  With a single ``--workload`` that object is the driver
contract's ``{"correct", "attempted", "failed", "metrics"}``.

* ``--trace 0`` (default): end-to-end metrics.  Each workload runs in
  ``--repeats`` fresh child processes that share ``--seconds`` of
  measuring time; children of different workloads are interleaved so host
  drift spreads over all of them.
* ``--trace 1``: per-layer metrics from one instrumented child per
  workload (peel ladder, span-recorded pass, profiled pass); spans go to
  ``results/bench/trace-<workload>.json``.
* ``--aa``: two full sets of the same code; fails if a bound is exceeded
  or an exact metric or digest differs.
* ``--spread N``: N runs per workload on seeds ``seed..seed+N-1``; prints
  each end-to-end metric's quartile spread against its bound.
* ``--selfcheck``: the deliberately broken canary cell must be reported
  as failed, which proves the correctness gate can go red.

See ``bench/README.md`` for the glossary and how to compare two commits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from defs import END_TO_END, PER_LAYER, PROFILES, WORKLOADS, WORKLOAD_BY_NAME  # noqa: E402

#: A child that has not answered by then is killed and the run fails.
CHILD_TIMEOUT_S = 170
#: Set-up is sampled at least this often per run (median reported).
SETUP_SAMPLES = 3
OUT_DIR = ROOT / "results" / "bench"


class BenchError(RuntimeError):
    """The benchmark itself could not run (not: a cell failed)."""


def spawn(workload: str, mode: str, seed: int, profile: str, budget: float, tmp: Path) -> Dict[str, Any]:
    """Run one child to completion and return the JSON it printed."""
    env = dict(os.environ)
    env.pop("REPRO_JOBS", None)
    env.update(
        REPRO_KERNEL="python",
        PYTHONHASHSEED="0",
        REPRO_RESULTS_DIR=str(tmp / "engine"),
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])),
        BENCH_T0=repr(time.monotonic()),
    )
    command = [
        sys.executable,
        str(BENCH_DIR / "child.py"),
        "--workload", workload,
        "--mode", mode,
        "--seed", str(seed),
        "--profile", profile,
        "--budget", repr(budget),
        "--tmp", str(tmp),
        "--out", str(OUT_DIR),
    ]  # fmt: skip
    try:
        done = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} child exceeded {CHILD_TIMEOUT_S}s") from exc
    if done.returncode != 0:
        raise BenchError(f"{workload} {mode} child exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def aggregate(children: List[Dict[str, Any]], setups: List[float]) -> Dict[str, Any]:
    """Fold one workload's measuring children into end-to-end metrics."""
    labels = children[0]["labels"]
    failures = [f for child in children for f in child["failures"]]
    pass_s = measured_s = 0.0
    samples = 0
    digest = hashlib.sha256()
    for i, label in enumerate(labels):
        walls = [w for child in children for w in child["samples"][i]]
        digests = {d for child in children for d in child["digests"][i]}
        if len(walls) < 2:
            failures.append(f"{label}: ran once, so same-seed determinism is unchecked")
        if len(digests) != 1:
            failures.append(f"{label}: same-seed executions differ in canonical_json")
        pass_s += min(walls)
        measured_s += sum(walls)
        samples += len(walls)
        digest.update(min(digests).encode())
    events = sum(children[0]["events"])
    attempted = sum(child["attempted"] for child in children)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": {
            "setup_s": statistics.median(setups),
            "us_per_event": 1e6 * pass_s / events if events else 0.0,
            "peak_rss_mb": statistics.median(child["peak_rss_mb"] for child in children),
        },
        "info": {
            "pass_s": pass_s,
            "cells_per_s": attempted / measured_s,
            "sim.events": events,
            "host.cal_s": statistics.median(c for child in children for c in child["cal_s"]),
            "host.cpu_share": statistics.median(child["cpu_share"] for child in children),
            "summary_digest": digest.hexdigest(),
            "samples": samples,
            "setup_samples": len(setups),
        },
    }


def measure(names: Sequence[str], seed: int, seconds: float, repeats: int, profile: str, tmp: Path) -> Dict[str, Any]:
    """End-to-end results of ``names``, children interleaved round-robin."""
    children: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    setups: Dict[str, List[float]] = {name: [] for name in names}
    for repeat in range(max(repeats, SETUP_SAMPLES)):
        for name in names:
            mode = "measure" if repeat < repeats else "setup"
            scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp))
            child = spawn(name, mode, seed, profile, seconds / repeats, scratch)
            setups[name].append(child["setup_s"])
            if mode == "measure":
                children[name].append(child)
    return {name: aggregate(children[name], setups[name]) for name in names}


def trace(names: Sequence[str], seed: int, profile: str, tmp: Path) -> Dict[str, Any]:
    """Per-layer results of ``names``: one instrumented child each."""
    out = {}
    for name in names:
        scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp))
        child = spawn(name, "trace", seed, profile, 0.0, scratch)
        out[name] = {
            "correct": not child["failures"],
            "attempted": child["attempted"],
            "failed": len(child["failures"]),
            "failures": child["failures"],
            "metrics": child["metrics"],
            "info": {"summary_digest": child["digest"], "trace_file": child["trace_path"]},
        }
    return out


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def contract_json(result: Dict[str, Any], metrics: Sequence[Any]) -> Dict[str, Any]:
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m.name: {"value": result["metrics"][m.name], "unit": m.unit} for m in metrics},
    }


def report(results: Dict[str, Any], metrics: Sequence[Any]) -> None:
    for name, result in results.items():
        print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}")
        for m in metrics:
            bound = "" if m.bound is None else f", bound {m.bound:.0%}"
            print(f"  {m.name:34s} {result['metrics'][m.name]:>16.6g} {m.unit:8s} ({m.better} is better{bound})")
        for key, value in result["info"].items():
            print(f"  {key:34s} {value!s:>16}")
        for failure in result["failures"]:
            print(f"  FAILED: {failure}")


def run_aa(names: Sequence[str], args: argparse.Namespace, tmp: Path) -> int:
    first = measure(names, args.seed, args.seconds, args.repeats, args.profile, tmp)
    second = measure(names, args.seed, args.seconds, args.repeats, args.profile, tmp)
    bad = 0
    for name in names:
        a, b = first[name], second[name]
        for m in END_TO_END:
            gap = abs(b["metrics"][m.name] - a["metrics"][m.name]) / a["metrics"][m.name]
            verdict = "ok" if gap <= m.bound else "EXCEEDS BOUND"
            bad += gap > m.bound
            print(f"{name:18s} {m.name:14s} {a['metrics'][m.name]:12.6g} {b['metrics'][m.name]:12.6g} "
                  f"gap {gap:7.2%} of bound {m.bound:.0%}  {verdict}")  # fmt: skip
        for key in ("summary_digest", "sim.events"):
            if a["info"][key] != b["info"][key]:
                bad += 1
                print(f"{name:18s} {key} differs: {a['info'][key]} vs {b['info'][key]}")
        bad += a["failed"] + b["failed"]
    print("A/A: " + ("agree" if not bad else f"{bad} problem(s)"))
    return 1 if bad else 0


def run_spread(names: Sequence[str], args: argparse.Namespace, tmp: Path) -> int:
    values: Dict[str, Dict[str, List[float]]] = {n: {m.name: [] for m in END_TO_END} for n in names}
    failed = 0
    for seed in range(args.seed, args.seed + args.spread):
        for name in names:
            result = measure([name], seed, args.seconds, args.repeats, args.profile, tmp)[name]
            failed += result["failed"]
            for m in END_TO_END:
                values[name][m.name].append(result["metrics"][m.name])
    bad = 0
    for name in names:
        for m in END_TO_END:
            runs = values[name][m.name]
            q1, median, q3 = statistics.quantiles(runs, n=4)
            spread = (q3 - q1) / median
            verdict = "ok" if spread <= m.bound / 3 else ("wide" if spread <= m.bound else "EXCEEDS BOUND")
            bad += spread > m.bound and m.name != "setup_s"
            print(f"{name:18s} {m.name:14s} median {median:12.6g} spread {spread:7.2%} "
                  f"of bound {m.bound:.0%}  {verdict}  {' '.join(f'{v:.5g}' for v in runs)}")  # fmt: skip
    print(f"spread over {args.spread} seeds: {bad} metric(s) over bound, {failed} failure(s)")
    return 1 if bad or failed else 0


def run_selfcheck(args: argparse.Namespace, tmp: Path) -> int:
    child = spawn(WORKLOADS[0].name, "selfcheck", args.seed, args.profile, 0.0, tmp)
    for failure in child["failures"]:
        print(f"canary reported as failed: {failure}")
    if child["failures"]:
        print("selfcheck ok: the correctness gate can go red")
        return 0
    print("selfcheck FAILED: the broken canary cell passed the gate")
    return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOAD_BY_NAME), help="run this workload only")
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOAD_BY_NAME), help="run this subset")
    parser.add_argument("--seed", type=int, default=0, help="offsets every cell, fuzz and campaign seed")
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time per workload")
    parser.add_argument("--repeats", type=int, default=2, help="fresh child processes per workload")
    parser.add_argument("--trace", nargs="?", type=int, choices=[0, 1], const=1, default=0)
    parser.add_argument("--profile", default="full", choices=sorted(PROFILES))
    parser.add_argument("--aa", action="store_true", help="two sets of the same code, compared")
    parser.add_argument("--spread", type=int, default=0, metavar="N", help="quartile spread over N seeds")
    parser.add_argument("--selfcheck", action="store_true", help="the broken canary must fail")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else (args.workloads or [w.name for w in WORKLOADS])
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT_DIR) as scratch:
            tmp = Path(scratch)
            if args.selfcheck:
                return run_selfcheck(args, tmp)
            if args.aa:
                return run_aa(names, args, tmp)
            if args.spread:
                return run_spread(names, args, tmp)
            if args.trace:
                results, metrics = trace(names, args.seed, args.profile, tmp), PER_LAYER
            else:
                results = measure(names, args.seed, args.seconds, args.repeats, args.profile, tmp)
                metrics = END_TO_END
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    report(results, metrics)
    if args.workload:
        print(json.dumps(contract_json(results[args.workload], metrics)))
    else:
        print(
            json.dumps(
                {
                    name: {
                        **contract_json(result, metrics),
                        "digest": result["info"]["summary_digest"],
                        "events": result["info"].get("sim.events"),
                    }
                    for name, result in results.items()
                }
            )
        )
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
