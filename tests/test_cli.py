"""The command-line interface."""

from __future__ import annotations

import functools
import json
import typing
from unittest import mock

import pytest

from repro import cli
from repro.cli import ALGORITHMS, CHECK_SCENARIOS, build_parser, main
from repro.fuzz import loop
from repro.workloads.registry import SCENARIO_FACTORIES
from tests.mutants import MEMBERSHIP_GENOME, MUTANTS


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.algorithm == "alg1"
        assert args.scenario == "nominal"
        assert args.seed == 0

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "--algorithm", "alg2", "--scenario", "san", "--seed", "9", "--n", "5"]
        )
        assert (args.algorithm, args.scenario, args.seed, args.n) == ("alg2", "san", 9, 5)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "nope"])

    def test_compare_seeds(self):
        args = build_parser().parse_args(["compare", "--seeds", "1", "2", "3"])
        assert args.seeds == [1, 2, 3]

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.scenarios == ["nominal"]
        assert args.seeds == [0, 1]
        assert args.jobs is None and not args.no_cache

    def test_sweep_options(self):
        args = build_parser().parse_args(
            ["sweep", "--algorithms", "alg1", "alg2", "--scenarios", "nominal",
             "leader-crash", "--seeds", "0", "1", "2", "--jobs", "4", "--no-cache"]
        )
        assert args.algorithms == ["alg1", "alg2"]
        assert args.scenarios == ["nominal", "leader-crash"]
        assert args.jobs == 4 and args.no_cache

    def test_sweep_traced_flag(self):
        assert build_parser().parse_args(["sweep"]).traced is False
        assert build_parser().parse_args(["sweep", "--traced"]).traced is True

    def test_sweep_shard_flags(self):
        args = build_parser().parse_args(["sweep"])
        assert args.shard is None and args.shards == 1
        args = build_parser().parse_args(["sweep", "--shard", "2/4"])
        assert args.shard == "2/4"
        args = build_parser().parse_args(["sweep", "--shards", "3"])
        assert args.shards == 3

    def test_memory_flags(self):
        assert build_parser().parse_args(["sweep"]).memory is None
        assert (
            build_parser().parse_args(["sweep", "--memory", "shared"]).memory
            == "shared"
        )
        assert (
            build_parser().parse_args(["sweep", "--memory", "emulated"]).memory
            == "emulated"
        )
        assert build_parser().parse_args(["run"]).memory is None
        assert (
            build_parser().parse_args(["run", "--memory", "emulated"]).memory
            == "emulated"
        )
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--memory", "astral"])

    def test_perf_defaults(self):
        args = build_parser().parse_args(["perf"])
        assert args.out is None and args.compare is None
        assert args.bench_args == []

    def test_perf_options(self):
        args = build_parser().parse_args(
            ["perf", "--out", "new.json", "--compare", "base.json",
             "--", "--profile", "smoke", "--workloads", "shared-fast", "sweep-pool"]
        )
        assert (args.out, args.compare) == ("new.json", "base.json")
        assert args.bench_args == [
            "--profile", "smoke", "--workloads", "shared-fast", "sweep-pool"
        ]

    def test_perf_benchmark_flags_need_the_separator(self):
        # A flag of bench/run.py before `--` is an error, not a silently
        # dropped option: the front end has --out and --compare only.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["perf", "--profile", "smoke"])

    def test_check_defaults(self):
        args = build_parser().parse_args(["check"])
        assert args.algorithms == ["alg1", "alg2"]
        assert args.scenarios == CHECK_SCENARIOS
        assert len(args.scenarios) >= 6  # the adversarial suite
        assert args.seeds == [0]

    def test_check_scenarios_are_registered(self):
        for name in CHECK_SCENARIOS:
            assert name in SCENARIO_FACTORIES

    def test_check_suite_includes_atomic_audit_cells(self):
        assert "nominal-emulated-atomic" in CHECK_SCENARIOS
        assert "replica-crash-atomic" in CHECK_SCENARIOS

    def test_check_suite_includes_lossy_audit_cell(self):
        assert "emulated-lossy-audit" in CHECK_SCENARIOS

    def test_consistency_flags(self):
        assert build_parser().parse_args(["run"]).consistency is None
        assert build_parser().parse_args(["sweep"]).consistency is None
        assert (
            build_parser().parse_args(["run", "--consistency", "atomic"]).consistency
            == "atomic"
        )
        assert (
            build_parser().parse_args(["sweep", "--consistency", "regular"]).consistency
            == "regular"
        )
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--consistency", "sequential"])

    def test_membership_flags(self):
        assert build_parser().parse_args(["run"]).membership is None
        assert build_parser().parse_args(["sweep"]).membership is None
        assert (
            build_parser().parse_args(["run", "--membership", "churn"]).membership
            == "churn"
        )
        assert (
            build_parser().parse_args(["sweep", "--membership", "none"]).membership
            == "none"
        )
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--membership", "rolling"])

    def test_check_suite_includes_membership_cells(self):
        assert "membership-churn" in CHECK_SCENARIOS
        assert "membership-churn-atomic" in CHECK_SCENARIOS

    def test_membership_canary_is_check_exempt_but_registered(self):
        # The canary is deliberately broken (single-config transitions);
        # `repro check` must never run it as a green cell, but CI replays
        # it by name expecting red.
        assert "membership-canary" in SCENARIO_FACTORIES
        assert "membership-canary" not in CHECK_SCENARIOS

    def test_fuzz_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.budget == 50 and args.seed == 0 and args.batch == 16
        assert args.horizon == 3000.0 and args.jobs is None
        assert args.corpus is None and not args.replay
        assert not args.no_shrink and not args.json

    def test_fuzz_options(self):
        args = build_parser().parse_args(
            ["fuzz", "--budget", "25", "--seed", "3", "--batch", "8",
             "--jobs", "2", "--horizon", "1200", "--corpus", "results/fuzz",
             "--no-shrink", "--verbose", "--json"]
        )
        assert (args.budget, args.seed, args.batch, args.jobs) == (25, 3, 8, 2)
        assert args.horizon == 1200.0 and args.corpus == "results/fuzz"
        assert args.no_shrink and args.verbose and args.json

    def test_fuzz_broken_transition_flag(self):
        # The broken modes are test-side protocol mutants now
        # (tests/mutants); the CLI offers no switch into them.
        for argv in (["fuzz", "--broken-transition"], ["fuzz", "--no-resync"],
                     ["chaos", "--no-resync"]):
            with pytest.raises(SystemExit) as caught:
                build_parser().parse_args(argv)
            assert caught.value.code == 2

    def test_fuzz_cell_is_check_exempt_but_registered(self):
        # The fuzzer audits the genome space itself; `repro check` must
        # not re-run an unpinned grid over it, but the factory has to be
        # registry-resolvable for pinned repros to replay.
        assert "fuzz-cell" in SCENARIO_FACTORIES
        assert "fuzz-cell" not in CHECK_SCENARIOS


class TestCommands:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ALGORITHMS:
            assert name in out
        for name in SCENARIO_FACTORIES:
            assert name in out

    def test_run_nominal(self, capsys):
        code = main(
            ["run", "--algorithm", "alg1", "--scenario", "nominal", "--seed", "1",
             "--n", "3", "--horizon", "1500", "--timeline"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "stabilized: True" in out
        assert "leadership timeline" in out
        assert "forever writers" in out

    def test_run_exit_code_on_non_stabilizing(self, capsys):
        code = main(
            ["run", "--algorithm", "baseline", "--scenario", "awb-only", "--seed", "2",
             "--n", "3", "--horizon", "800"]
        )
        # Short horizon: the baseline may or may not settle; the exit
        # code must reflect the printed verdict either way.
        out = capsys.readouterr().out
        assert ("stabilized: True" in out) == (code == 0)

    def test_check_audits_and_reports_results_dir(self, capsys, tmp_path):
        # A single fast cell through the real engine path: the property
        # table, the violation count and the resolved cache dir must all
        # be reported.  (The full adversarial suite runs in CI.)
        code = main(
            ["check", "--algorithms", "alg1", "--scenarios", "leader-crash",
             "--seeds", "0", "--jobs", "1", "--results-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "T1 leadership" in out and "T4 write-optimal" in out
        assert "0 violation(s)" in out
        assert f"results dir: {tmp_path.resolve()}" in out

    def test_sweep_runs_grid(self, capsys, tmp_path):
        argv = ["sweep", "--algorithms", "alg1", "--scenarios", "nominal",
                "--seeds", "0", "1", "--n", "3", "--horizon", "1500",
                "--jobs", "2", "--results-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "nominal-n3" in out
        assert "2 executed" in out and "0 from cache" in out
        # Second invocation of the same spec is served from the cache.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 executed" in out and "2 from cache" in out

    def test_sweep_shard_splits_and_resumes(self, capsys, tmp_path):
        base = ["sweep", "--algorithms", "alg1", "--scenarios", "nominal",
                "--seeds", "0", "1", "2", "--n", "3", "--horizon", "1000",
                "--jobs", "1", "--results-dir", str(tmp_path)]
        assert main(base + ["--shard", "1/2"]) == 0
        out = capsys.readouterr().out
        assert "shard 1/2: cells 1..2 of 3" in out
        assert "2 executed" in out
        assert main(base + ["--shard", "2/2"]) == 0
        out = capsys.readouterr().out
        assert "shard 2/2: cells 3..3 of 3" in out
        # The unsharded sweep is now fully served from the shared cache.
        assert main(base) == 0
        out = capsys.readouterr().out
        assert "0 executed" in out and "3 from cache" in out

    def test_sweep_in_process_shards(self, capsys, tmp_path):
        assert main(
            ["sweep", "--algorithms", "alg1", "--scenarios", "nominal",
             "--seeds", "0", "1", "--n", "3", "--horizon", "1000",
             "--jobs", "1", "--shards", "2", "--results-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "in-process shards: 2" in out
        assert "2 executed" in out

    def test_sweep_shard_malformed_is_friendly(self, capsys):
        assert main(["sweep", "--shard", "nope"]) == 2
        err = capsys.readouterr().err
        assert "shard must look like 'K/N'" in err

    def test_sweep_shard_out_of_range_is_friendly(self, capsys):
        assert main(["sweep", "--shard", "3/2"]) == 2
        err = capsys.readouterr().err
        assert "out of range" in err

    def test_sweep_shard_conflicts_with_shards(self, capsys):
        assert main(["sweep", "--shard", "1/2", "--shards", "2"]) == 2
        err = capsys.readouterr().err
        assert "mutually exclusive" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--window", "0"], "window must be positive and finite, got 0.0"),
            (["sweep", "--window=-5"], "window must be positive and finite, got -5.0"),
            (["check", "--window", "nan"], "window must be positive and finite, got nan"),
            (
                ["sweep", "--scenarios", "nominal", "--horizon", "300"],
                "scenario 'nominal-n4' (horizon 300): horizon too short for the requested "
                "windows of width 100",
            ),
            (["check", "--scenarios", "gst-ramp", "--window", "3000"], "scenario 'gst-ramp-n4'"),
        ],
    )
    def test_bad_census_window_is_refused_before_anything_runs(
        self, capsys, monkeypatch, argv, message
    ):
        def never(*_args, **_kwargs):
            raise AssertionError("a cell was simulated")

        monkeypatch.setattr("repro.engine.driver.run_experiment", never)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro {argv[0]}: error: ") and message in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fuzz", "--batch", "0", "--budget", "2"], "batch must be >= 1, got 0"),
            (["fuzz", "--batch", "-1"], "batch must be >= 1, got -1"),
            (["fuzz", "--budget", "-3"], "budget must be >= 1, got -3"),
            (["fuzz", "--budget", "1", "--horizon", "0"], "horizon must be positive and finite"),
            (["fuzz", "--budget", "1", "--horizon", "nan"], "horizon must be positive and finite"),
            (["chaos", "--plans", "-2"], "plans must be >= 1, got -2"),
            (["chaos", "--plans", "1", "--n", "1"], "n must be >= 2, got 1"),
            (["chaos", "--plans", "1", "--horizon", "0"], "horizon must be positive and finite"),
            (["chaos", "--plans", "1", "--horizon", "nan"], "got nan"),
            (["chaos", "--plans", "1", "--replicas", "1"], "replicas must be >= 2, got 1"),
            (["chaos", "--plans", "1", "--max-faults", "-1"], "max_faults must be >= 1, got -1"),
            (["sweep", "--shards", "0"], "shards must be >= 1, got 0"),
            # Cells no run can be built from: refused by the scenario (or
            # its factory) and the override transform, with Run's text.
            (["run", "--scenario", "san", "--memory", "emulated"],
             "the emulated backend and the SAN disk model both make register "
             "accesses interval operations; pick one"),
            (["sweep", "--scenarios", "san", "--memory", "emulated"], "; pick one"),
            (["run", "--scenario", "near-all-cascade", "--n", "2"],
             "need 1 <= survivors < n, got 2"),
            (["sweep", "--scenarios", "near-all-cascade", "--n", "2"],
             "need 1 <= survivors < n, got 2"),
            (["run", "--n", "1"], "need at least two processes"),
            (["sweep", "--scenarios", "nominal", "--n", "1"], "need at least two processes"),
            (["sweep", "--scenarios", "nominal", "--horizon", "nan"],
             "horizon must be positive and finite, got nan"),
            (["run", "--horizon", "-5"], "horizon must be positive and finite, got -5.0"),
            (["compare", "--horizon", "0"], "horizon must be positive and finite, got 0.0"),
            (["sweep", "--scenarios", "nominal-emulated", "--memory", "shared",
              "--membership", "churn"],
             "--membership is an emulated-backend axis but these cells run the shared "
             "backend: ['nominal-emulated-n4']"),
        ],
    )
    def test_bad_search_numbers_are_refused_before_anything_runs(
        self, capsys, monkeypatch, argv, message
    ):
        def never(*_args, **_kwargs):
            raise AssertionError("the command ran")

        for target in ("repro.engine.driver.run_experiment",
                       "repro.faults.campaign.run_campaign", "repro.fuzz.loop.run_fuzz",
                       "repro.workloads.scenarios.Scenario.build"):
            monkeypatch.setattr(target, never)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro {argv[0]}: error: ") and message in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_sweep_memory_emulated(self, capsys, tmp_path):
        assert main(
            ["sweep", "--algorithms", "alg1", "--scenarios", "nominal",
             "--seeds", "0", "--n", "3", "--horizon", "1000",
             "--memory", "emulated", "--jobs", "1", "--results-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "1 executed" in out

    def test_run_memory_override(self, capsys):
        assert main(
            ["run", "--algorithm", "alg1", "--scenario", "nominal", "--seed", "0",
             "--n", "3", "--horizon", "1000", "--memory", "emulated"]
        ) == 0
        out = capsys.readouterr().out
        assert "emulated memory" in out and "stabilized: True" in out

    def test_run_memory_conflict_is_friendly(self, capsys):
        # The SAN scenario uses the disk model; forcing the emulated
        # backend on top must produce a CLI error, not a traceback.
        code = main(["run", "--scenario", "san", "--memory", "emulated"])
        captured = capsys.readouterr()
        assert code == 2
        assert "repro run: error:" in captured.err and "pick one" in captured.err

    def test_run_atomic_scenario_prints_audit(self, capsys):
        assert main(
            ["run", "--algorithm", "alg1", "--scenario", "nominal-emulated-atomic",
             "--seed", "0", "--n", "3", "--horizon", "1500"]
        ) == 0
        out = capsys.readouterr().out
        assert "atomic reads" in out
        assert "consistency audit: consistent:" in out

    def test_run_consistency_override_on_emulated(self, capsys):
        assert main(
            ["run", "--algorithm", "alg1", "--scenario", "nominal", "--seed", "0",
             "--n", "3", "--horizon", "1000", "--memory", "emulated",
             "--consistency", "atomic"]
        ) == 0
        out = capsys.readouterr().out
        assert "emulated memory, atomic reads" in out

    def test_run_consistency_on_shared_is_friendly(self, capsys):
        code = main(["run", "--scenario", "nominal", "--consistency", "atomic"])
        captured = capsys.readouterr()
        assert code == 2
        assert "emulated-backend axis" in captured.err

    def test_sweep_consistency_on_shared_grid_is_friendly(self, capsys):
        code = main(
            ["sweep", "--algorithms", "alg1", "--scenarios", "nominal",
             "--seeds", "0", "--consistency", "atomic"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "emulated-backend axis" in captured.err

    def test_sweep_consistency_on_emulated_grid(self, capsys, tmp_path):
        assert main(
            ["sweep", "--algorithms", "alg1", "--scenarios", "nominal-emulated",
             "--seeds", "0", "--n", "3", "--horizon", "1000",
             "--consistency", "atomic", "--jobs", "1",
             "--results-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "1 executed" in out

    def test_check_counts_consistency_audited_cells(self, capsys, tmp_path):
        code = main(
            ["check", "--algorithms", "alg1",
             "--scenarios", "nominal-emulated-atomic",
             "--seeds", "0", "--jobs", "1", "--results-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0 violation(s)" in out
        assert "1 consistency-audited cell(s)" in out

    def test_check_counts_write_ack_integrity_violations(self, capsys, tmp_path, monkeypatch):
        # `repro check` judges rows with the search oracle: a row whose
        # only fault is a write-ack integrity violation fails the audit.
        from repro.engine import driver

        real = driver.run_experiment

        def tampered(*args, **kwargs):
            report = real(*args, **kwargs)
            report.rows[0].integrity_violations = 2
            return report

        monkeypatch.setattr(driver, "run_experiment", tampered)
        code = main(
            ["check", "--algorithms", "alg1", "--scenarios", "leader-crash",
             "--seeds", "0", "--jobs", "1", "--results-dir", str(tmp_path)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "2 violation(s)" in captured.out
        assert "WRITE-ACK INTEGRITY FAILED (2 violation(s))" in captured.err

    def test_sweep_reports_cell_failures(self, capsys, tmp_path, monkeypatch):
        def crash(*_args, **_kwargs):
            raise RuntimeError("cell blew up")

        monkeypatch.setattr("repro.engine.worker.run_point", crash)
        code = main(
            ["sweep", "--algorithms", "alg1", "--scenarios", "nominal",
             "--seeds", "0", "--n", "3", "--horizon", "500", "--jobs", "1",
             "--results-dir", str(tmp_path)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "FAILED" in captured.err and "RuntimeError: cell blew up" in captured.err

    def test_compare_table(self, capsys):
        code = main(
            ["compare", "--scenario", "nominal", "--algorithms", "alg1", "alg1-no-timer",
             "--seeds", "0", "--n", "3", "--horizon", "1500"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "alg1" in out and "alg1-no-timer" in out
        assert "forever writers" in out

    def test_compare_rejects_an_empty_seed_list(self, capsys):
        code = main(["compare", "--seeds"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "repro compare: error: --seeds needs at least one seed\n"

    def test_compare_reports_a_rejected_configuration(self, capsys):
        code = main(["compare", "--algorithms", "alg1", "--n", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "repro compare: error: need at least two processes\n"

    @pytest.mark.parametrize(
        "flag, value, role",
        [
            ("consistency", "atomic", "is an emulated-backend axis"),
            ("membership", "churn", "is an emulated-backend axis"),
            ("links", "lossy", "selects the emulated backend's link model"),
        ],
    )
    def test_run_emulated_axis_on_shared_error_text(self, capsys, flag, value, role):
        assert main(["run", "--scenario", "nominal", f"--{flag}", value]) == 2
        assert capsys.readouterr().err == (
            f"repro run: error: --{flag} {role}; "
            "pass --memory emulated or pick an emulated scenario\n"
        )

    def test_run_links_override_drops_the_model_specific_params(self, capsys):
        assert main(
            ["run", "--scenario", "nominal-emulated", "--n", "3", "--horizon", "1500",
             "--links", "timely"]
        ) == 0
        # TimelyLinks would reject the sync model's ``delta``; the line
        # is the parent commit's output for this cell.
        assert "traffic: 92 writes / 1119 reads; 9154 events" in capsys.readouterr().out

    def test_run_outside_the_assumptions_exits_green_unstabilized(self, capsys):
        # capped-timers declares assumption "none": churning forever is
        # the expected outcome, not a failure.
        code = main(["run", "--scenario", "capped-timers", "--n", "3", "--horizon", "1500"])
        assert "stabilized: False" in capsys.readouterr().out
        assert code == 0

    def test_run_membership_churn_override(self, capsys):
        assert main(
            ["run", "--algorithm", "alg1", "--scenario", "nominal-emulated",
             "--seed", "0", "--n", "3", "--horizon", "4000",
             "--membership", "churn"]
        ) == 0
        out = capsys.readouterr().out
        assert "reconfiguration: 2 config(s) installed" in out
        assert "2 transfer round(s)" in out

    def test_run_membership_on_shared_is_friendly(self, capsys):
        code = main(["run", "--scenario", "nominal", "--membership", "churn"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--membership is an emulated-backend axis" in captured.err

    def test_run_membership_churn_scenario(self, capsys):
        assert main(
            ["run", "--algorithm", "alg1", "--scenario", "membership-churn",
             "--seed", "0", "--n", "3", "--horizon", "6000"]
        ) == 0
        out = capsys.readouterr().out
        assert "reconfiguration: 2 config(s) installed" in out
        assert "consistency audit: consistent:" in out

    def test_run_membership_canary_exits_red(self, capsys):
        # The negative control: the broken single-config mode must turn
        # the history audit red and flip the exit code.
        code = main(
            ["run", "--algorithm", "alg1", "--scenario", "membership-canary",
             "--seed", "0", "--n", "3"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "NOT consistent" in out

    def test_sweep_membership_on_shared_grid_is_friendly(self, capsys):
        code = main(
            ["sweep", "--algorithms", "alg1", "--scenarios", "nominal",
             "--seeds", "0", "--membership", "churn"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "--membership is an emulated-backend axis" in captured.err

    def test_sweep_membership_on_emulated_grid(self, capsys, tmp_path):
        assert main(
            ["sweep", "--algorithms", "alg1", "--scenarios", "nominal-emulated",
             "--seeds", "0", "--n", "3", "--horizon", "4000",
             "--membership", "churn", "--jobs", "1",
             "--results-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "1 executed" in out

    def test_fuzz_replay_requires_a_corpus(self, capsys):
        assert main(["fuzz", "--replay"]) == 2
        assert "--corpus" in capsys.readouterr().err

    def test_fuzz_replay_rejects_a_missing_corpus_directory(self, capsys, tmp_path):
        # A typo'd path must not turn the regression gate green.
        assert main(["fuzz", "--replay", "--corpus", str(tmp_path / "typo")]) == 2
        captured = capsys.readouterr()
        assert "repro fuzz: error:" in captured.err and "typo" in captured.err
        assert "still red" not in captured.out

    @pytest.mark.parametrize("mode", [["--replay"], ["--budget", "1"]])
    def test_fuzz_reports_a_torn_corpus_file(self, capsys, tmp_path, mode):
        torn = tmp_path / "regressions" / "abc.json"
        torn.parent.mkdir()
        torn.write_text('{"factory": "fuzz-c')
        assert main(["fuzz", *mode, "--corpus", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "repro fuzz: error: corrupt corpus file" in err and str(torn) in err

    @pytest.mark.parametrize(
        "relative, content, complaint",
        [
            ("genomes/x.json", "[1, 2]", "expected a JSON object, got list"),
            ("genomes/x.json", json.dumps({"bogus": 1}), "unknown genome key(s): ['bogus']"),
            ("coverage.json", "[1]", "expected a JSON object, got list"),
            ("regressions/x.json", "{}", "pinned repro lacks"),
        ],
        ids=["genome-list", "genome-unknown-key", "coverage-list", "repro-empty"],
    )
    @pytest.mark.parametrize("mode", [["--replay"], ["--budget", "1"]])
    def test_fuzz_reports_a_malformed_corpus_file(
        self, capsys, tmp_path, mode, relative, content, complaint
    ):
        bad = tmp_path / relative
        bad.parent.mkdir(exist_ok=True)
        bad.write_text(content)
        assert main(["fuzz", *mode, "--jobs", "1", "--corpus", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"repro fuzz: error: corrupt corpus file {bad}: ")
        assert complaint in err[0]

    def test_chaos_no_resync_reports_the_shrunk_plan(self, capsys):
        with MUTANTS["skip-resync"].applied():
            code = main(["chaos", "--plans", "4", "--seed", "0", "--horizon", "2000"])
        captured = capsys.readouterr()
        assert code == 1
        assert "4 plan(s) run: 1 violating plan(s)" in captured.out
        assert "VIOLATING PLAN" in captured.err and "event(s) in" in captured.err
        assert "pinned repro" in captured.err and '"factory": "chaos"' in captured.err

    def test_fuzz_smoke_run_reports_signatures(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        code = main(
            ["fuzz", "--budget", "4", "--batch", "4", "--jobs", "2",
             "--horizon", "900", "--corpus", str(corpus)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "4 genome(s) run: 0 violating genome(s)" in out
        assert (corpus / "coverage.json").is_file()
        # An immediate replay of an all-clean corpus has nothing pinned.
        assert main(["fuzz", "--replay", "--corpus", str(corpus)]) == 0
        assert "0 still red" in capsys.readouterr().out

    def test_fuzz_broken_transition_pins_the_membership_repro(self, capsys, tmp_path):
        # The membership negative oracle end to end: `repro fuzz` seeded
        # with the turnover genome under the single-config mutant must
        # catch, shrink and pin a registry-replayable repro.
        corpus = tmp_path / "corpus"
        seeded = functools.partial(loop.run_fuzz, initial=[MEMBERSHIP_GENOME])
        with MUTANTS["single-config"].applied(), mock.patch.object(loop, "run_fuzz", seeded):
            code = main(
                ["fuzz", "--budget", "1", "--batch", "1", "--jobs", "1",
                 "--horizon", "900", "--corpus", str(corpus)]
            )
        captured = capsys.readouterr()
        assert code == 1
        assert "1 violating genome(s)" in captured.out
        assert "VIOLATING GENOME" in captured.err
        assert "pinned repro" in captured.err
        assert '"membership": [' in captured.err
        # The pinned repro stays red on replay while the mutant is in,
        # and goes green on the real emulation.
        with MUTANTS["single-config"].applied():
            assert main(["fuzz", "--replay", "--corpus", str(corpus)]) == 1
        assert "1 still red" in capsys.readouterr().out
        assert main(["fuzz", "--replay", "--corpus", str(corpus)]) == 0
        assert "0 still red" in capsys.readouterr().out


@pytest.mark.parametrize(
    "function",
    [*SCENARIO_FACTORIES.values()]
    + [getattr(cli, name) for name in dir(cli) if name.startswith(("cmd_", "_print_"))],
    ids=lambda function: getattr(function, "__name__", repr(function)),
)
def test_annotations_resolve(function):
    # Every name an annotation uses must be imported where it is used:
    # `typing.get_type_hints` is what doc tools and type-driven
    # dispatchers call, and it raises NameError otherwise.
    typing.get_type_hints(function)
