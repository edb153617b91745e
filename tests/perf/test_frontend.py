"""``repro perf``: the comparison rule, and the command over a stub contract."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro import perf
from repro.cli import main

REPO = Path(__file__).resolve().parents[2]

#: The contract's table, bounds as committed in BENCHMARK.json, plus a
#: higher-is-better metric so both directions of the rule are tabled.
END_TO_END = [
    {"name": "us_per_event", "unit": "us", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
    {"name": "cells_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def entry(failed=0, attempted=10, **metrics):
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "-"} for name, value in metrics.items()},
        "digest": "d",
        "events": 100,
    }


class TestCompareRule:
    @pytest.mark.parametrize(
        "base,new,expected",
        [
            ({"w": entry(us_per_event=4.0)}, {"w": entry(us_per_event=4.0)}, []),
            ({"w": entry(us_per_event=4.0)}, {"w": entry(us_per_event=5.1)}, ["w us_per_event"]),
            ({"w": entry(us_per_event=4.0)}, {"w": entry(us_per_event=4.9)}, []),
            ({"w": entry(peak_rss_mb=40.0)}, {"w": entry(peak_rss_mb=47.0)}, ["w peak_rss_mb"]),
            ({"w": entry(us_per_event=4.0)}, {"w": entry(us_per_event=0.1)}, []),
            ({"w": entry(cells_per_s=30.0)}, {"w": entry(cells_per_s=20.0)}, ["w cells_per_s"]),
            ({"w": entry(cells_per_s=30.0)}, {"w": entry(cells_per_s=300.0)}, []),
            ({"w": entry(), "gone": entry()}, {"w": entry()}, ["gone: workload missing"]),
            ({"w": entry()}, {"w": entry(), "extra": entry()}, []),
            ({"w": entry(failed=0)}, {"w": entry(failed=1)}, ["w: failed share grew, 0/10 -> 1/10"]),
            ({"w": entry(failed=2)}, {"w": entry(failed=4, attempted=20)}, []),
            ({"w": entry(failed=2)}, {"w": entry(failed=0)}, []),
            ({"w": entry(us_per_event=4.0)}, {"w": entry()}, ["w us_per_event: metric missing"]),
            ({"w": entry()}, {"w": entry(us_per_event=4.0)}, []),
            ({"w": entry(us_per_event=0.0)}, {"w": entry(us_per_event=4.0)}, []),
        ],
        ids=[
            "identical", "lower-beyond-bound", "lower-inside-bound", "tighter-bound-per-metric",
            "improvement", "higher-beyond-bound", "higher-improvement", "workload-missing",
            "workload-added", "failed-share-0-to-positive", "failed-share-equal",
            "failed-share-shrank", "metric-missing-in-new", "metric-missing-in-base",
            "zero-baseline-not-gated",
        ],
    )  # fmt: skip
    def test_table(self, base, new, expected):
        regressions = perf.compare_results(new, base, END_TO_END)
        assert len(regressions) == len(expected), regressions
        for line, prefix in zip(regressions, expected):
            assert line.startswith(prefix)

    def test_regression_line_quotes_both_values_and_the_bound(self):
        (line,) = perf.compare_results(
            {"w": entry(us_per_event=6.0)}, {"w": entry(us_per_event=4.0)}, END_TO_END
        )
        assert line == "w us_per_event: 4 -> 6 us, 50.0% worse (bound 25%)"


class TestParseResult:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            '{"w": {"attempted": 1',
            "[]",
            "{}",
            '{"correct": true, "attempted": 1, "failed": 0, "metrics": {}}',
            '{"w": {"attempted": 1, "failed": 0}}',
            '{"w": {"attempted": 1, "failed": 0, "metrics": {"m": 3.0}}}',
            '{"w": {"attempted": 1, "failed": 0, "metrics": {"m": {"value": "fast"}}}}',
        ],
        ids=["empty", "truncated", "array", "no-workloads", "single-workload-contract",
             "no-metrics", "bare-metric-value", "non-numeric-value"],
    )  # fmt: skip
    def test_rejects_non_results(self, text):
        with pytest.raises(ValueError, match="^somewhere: not "):
            perf.parse_result(text, "somewhere")

    def test_accepts_the_driver_contract_shape(self):
        result = {"w": entry(us_per_event=4.0)}
        assert perf.parse_result(json.dumps(result), "somewhere") == result


# ----------------------------------------------------------------------
# cmd_perf over a stub contract
# ----------------------------------------------------------------------
#: What the stub benchmark does: leave a marker (so a test can tell it
#: never started), echo its arguments, print the result, exit as told.
STUB = (
    "import json, pathlib, sys; pathlib.Path('ran').touch(); print('args', sys.argv[1:]); "
    "print(json.dumps({result!r})); sys.exit({code})"
)


@pytest.fixture
def stub(tmp_path, monkeypatch):
    """Point the front end at a checkout whose BENCHMARK.json runs a
    one-line stub; ``stub(result, code=0)`` (re)writes that contract."""
    monkeypatch.setattr(perf, "repo_root", lambda: tmp_path)

    def write(result, code=0):
        command = [sys.executable, "-c", STUB.format(result=result, code=code)]
        contract = {"command": command, "end_to_end": END_TO_END}
        (tmp_path / perf.CONTRACT_FILENAME).write_text(json.dumps(contract))

    write({"w": entry(us_per_event=4.0)})
    return write


class TestCommand:
    def test_streams_and_returns_the_benchmark_status(self, stub, capfd):
        assert main(["perf"]) == 0
        assert '"us_per_event"' in capfd.readouterr().out
        stub({"w": entry(us_per_event=4.0, failed=1)}, code=1)
        assert main(["perf"]) == 1

    def test_arguments_after_the_separator_pass_through_unchanged(self, stub, capfd):
        assert main(["perf", "--", "--profile", "smoke", "--workloads", "a", "b"]) == 0
        assert "args ['--profile', 'smoke', '--workloads', 'a', 'b']" in capfd.readouterr().out

    def test_out_saves_the_result_object(self, stub, tmp_path):
        out = tmp_path / "deep.json"
        assert main(["perf", "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == {"w": entry(us_per_event=4.0)}

    def test_compare_exits_0_inside_the_bound_and_1_beyond_it(self, stub, tmp_path, capfd):
        base = tmp_path / "base.json"
        assert main(["perf", "--out", str(base)]) == 0
        stub({"w": entry(us_per_event=4.9)})
        assert main(["perf", "--compare", str(base)]) == 0
        assert "compared 1 workload(s)" in capfd.readouterr().out
        stub({"w": entry(us_per_event=5.1)})
        assert main(["perf", "--compare", str(base)]) == 1
        assert "PERF REGRESSION w us_per_event" in capfd.readouterr().err

    def test_compare_equal_to_out_reads_the_baseline_before_the_write(self, stub, tmp_path, capfd):
        path = tmp_path / "both.json"
        assert main(["perf", "--out", str(path)]) == 0
        stub({"w": entry(us_per_event=8.0)})
        assert main(["perf", "--out", str(path), "--compare", str(path)]) == 1
        assert "4 -> 8 us" in capfd.readouterr().err
        assert json.loads(path.read_text())["w"]["metrics"]["us_per_event"]["value"] == 8.0

    @pytest.mark.parametrize(
        "content",
        [None, '{"w": {"attempted": 1', '{"w": 3}'],
        ids=["missing", "truncated", "wrong-shape"],
    )
    def test_bad_baseline_exits_2_before_anything_runs(self, stub, tmp_path, capfd, content):
        base = tmp_path / "base.json"
        if content is not None:
            base.write_text(content)
        assert main(["perf", "--compare", str(base)]) == 2
        err = capfd.readouterr().err
        assert err.startswith("repro perf: error: ") and err.count("\n") == 1
        assert not (tmp_path / "ran").exists()

    def test_missing_contract_exits_2(self, stub, tmp_path, capfd):
        (tmp_path / perf.CONTRACT_FILENAME).unlink()
        assert main(["perf"]) == 2
        assert capfd.readouterr().err.startswith("repro perf: error: ")

    def test_failing_benchmark_is_gated_on_its_failed_share(self, stub, tmp_path, capfd):
        base = tmp_path / "base.json"
        assert main(["perf", "--out", str(base)]) == 0
        stub({"w": entry(us_per_event=4.0, failed=1)}, code=1)
        assert main(["perf", "--compare", str(base)]) == 1
        assert "failed share grew" in capfd.readouterr().err
        # The same failed share as the baseline is no regression, but the
        # benchmark's own verdict still decides the exit status.
        assert main(["perf", "--out", str(base)]) == 1
        assert main(["perf", "--compare", str(base)]) == 1
        assert "0 regression(s)" in capfd.readouterr().out

    def test_benchmark_that_prints_no_result_reports_its_status(self, stub, tmp_path, capfd):
        (tmp_path / perf.CONTRACT_FILENAME).write_text(
            json.dumps({"command": [sys.executable, "-c", "raise SystemExit(3)"], "end_to_end": []})
        )
        out = tmp_path / "out.json"
        assert main(["perf", "--out", str(out)]) == 3
        assert "benchmark exit status 3" in capfd.readouterr().err
        assert not out.exists()


def test_front_end_is_held_to_the_no_wall_clock_lint_rule():
    # `repro lint` (run over the committed tree by tests/lint) rejects a
    # timing call in any listed package: the front end measures nothing.
    from repro.lint.config import DETERMINISM_PACKAGES

    assert "perf" in DETERMINISM_PACKAGES


def test_real_benchmark_smoke(tmp_path, capfd):
    """The one test that runs the real contract (a few seconds)."""
    out = tmp_path / "smoke.json"
    code = main(
        ["perf", "--out", str(out), "--",
         "--profile", "smoke", "--seconds", "1", "--workloads", "shared-fast"]
    )  # fmt: skip
    assert code == 0, capfd.readouterr().err
    result = json.loads(out.read_text())
    contract = json.loads((REPO / perf.CONTRACT_FILENAME).read_text())
    assert set(result) == {"shared-fast"}
    assert set(result["shared-fast"]["metrics"]) == {m["name"] for m in contract["end_to_end"]}
    assert result["shared-fast"]["failed"] == 0 and result["shared-fast"]["events"] > 0
    assert perf.compare_results(result, result, contract["end_to_end"]) == []
