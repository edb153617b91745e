"""The benchmark's own checks: ``python -m pytest bench/tests -q``.

Not part of tier-1 (``testpaths`` stays ``tests/``).  Everything that
runs the program uses ``--profile smoke``, which keeps every code path
and shrinks the work; its numbers mean nothing.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import defs  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: Workloads whose smoke trace the structural checks read.
TRACED = ["abd-faults-churn", "sweep-pool", "search-campaign"]


def run_bench(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--profile", "smoke", "--seed", "0", *args],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def engine_cache_files() -> set:
    return {p for p in (ROOT / "results" / "engine").glob("**/*") if p.is_file()}


@pytest.fixture(scope="module")
def smoke() -> dict:
    """One untraced and one traced smoke invocation, plus the default
    engine cache's file list before and after."""
    before = engine_cache_files()
    untraced = run_bench("--seconds", "0", "--repeats", "2")
    traced = run_bench("--trace", "1", "--workloads", *TRACED)
    return {"untraced": untraced, "traced": traced, "cache_before": before, "cache_after": engine_cache_files()}


# ----------------------------------------------------------------------
def test_metric_and_workload_names_are_well_formed() -> None:
    metrics = defs.END_TO_END + defs.PER_LAYER
    names = [m.name for m in metrics] + [w.name for w in defs.WORKLOADS]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in metrics:
        assert UNIT.fullmatch(m.unit), m
        assert m.better in ("lower", "higher"), m
        assert m.what
    assert 2 <= len(defs.WORKLOADS) <= 8
    assert 1 <= len(defs.END_TO_END) <= 16
    assert 1 <= len(defs.PER_LAYER) <= 128
    for m in defs.END_TO_END:
        assert m.bound is not None and 0 < m.bound <= 0.25, m
    setup = next(m for m in defs.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in defs.END_TO_END)


def test_benchmark_json_says_what_defs_says() -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "bench/run.py"]
    assert doc["paths"] == ["bench"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert doc["workloads"] == [{"name": w.name, "why": w.why} for w in defs.WORKLOADS]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in defs.END_TO_END
    ]
    assert doc["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better} for m in defs.PER_LAYER]


def test_every_workload_reports_every_end_to_end_metric_and_nothing_fails(smoke: dict) -> None:
    assert list(smoke["untraced"]) == [w.name for w in defs.WORKLOADS]
    for name, result in smoke["untraced"].items():
        assert result["correct"] is True and result["failed"] == 0, name
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m.name for m in defs.END_TO_END}
        for m in defs.END_TO_END:
            entry = result["metrics"][m.name]
            assert entry["unit"] == m.unit and entry["value"] > 0, (name, m.name)


def test_traced_run_reports_every_layer_metric(smoke: dict) -> None:
    for name in TRACED:
        result = smoke["traced"][name]
        assert result["correct"] is True and result["failed"] == 0, name
        assert set(result["metrics"]) == {m.name for m in defs.PER_LAYER}
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values["fail_share"] == 0
        assert values["trace.span_coverage"] >= 0.98
        shares = [v for k, v in values.items() if k.endswith("self_share")]
        assert sum(shares) == pytest.approx(1.0)
    assert smoke["traced"]["sweep-pool"]["metrics"]["engine.cache_hit_share"]["value"] == 1.0
    assert smoke["traced"]["sweep-pool"]["metrics"]["netsim.self_share"]["value"] == 0.0
    assert smoke["traced"]["abd-faults-churn"]["metrics"]["netsim.msgs_sent"]["value"] > 0


def test_exact_metrics_repeat_across_invocations(smoke: dict) -> None:
    """The traced invocation runs the same cells as the untraced one (the
    sweep at jobs=1 instead of 2), so digests and event counts agree; a
    second traced invocation repeats every exact layer metric."""
    for name in TRACED:
        assert smoke["traced"][name]["digest"] == smoke["untraced"][name]["digest"], name
        assert smoke["traced"][name]["metrics"]["sim.events"]["value"] == smoke["untraced"][name]["events"]
    again = run_bench("--trace", "1", "--workload", "abd-faults-churn")
    first = smoke["traced"]["abd-faults-churn"]["metrics"]
    for m in defs.PER_LAYER:
        if m.exact:
            assert again["metrics"][m.name] == first[m.name], m.name


def test_default_engine_cache_is_untouched(smoke: dict) -> None:
    assert smoke["cache_after"] == smoke["cache_before"]


@pytest.mark.parametrize("name", TRACED)
def test_trace_spans_nest_and_account_for_the_root(smoke: dict, name: str) -> None:
    spans = json.loads((ROOT / "results" / "bench" / f"trace-{name}.json").read_text())["spans"]
    by_id = {s["id"]: s for s in spans}
    assert len(by_id) == len(spans)
    roots = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["pass", "profiled-pass"]
    for s in spans:
        assert s["end"] >= s["start"] and s["self"] >= -1e-9
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]

    def root_of(span: dict) -> int:
        while span["parent"] is not None:
            span = by_id[span["parent"]]
        return span["id"]

    for root in roots:
        below = sum(s["self"] for s in spans if s["parent"] is not None and root_of(s) == root["id"])
        duration = root["end"] - root["start"]
        assert below <= duration + 1e-9
        assert below + root["self"] == pytest.approx(duration)


def test_selfcheck_sees_the_canary_fail() -> None:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--selfcheck"], capture_output=True, text=True, timeout=170
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "membership-canary" in done.stdout and "consistency audit" in done.stdout


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    """In a directory holding only the benchmark there is nothing to
    measure: exit non-zero and print no result."""
    import shutil

    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "shared-fast", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""
