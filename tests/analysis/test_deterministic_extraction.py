"""Regression pins for the determinism-lint bring-up fixes.

``repro lint`` flagged three set-representative extractions
(``finals.pop()``, ``common.pop()``, ``next(iter(tail_writers))``).
Each sat behind a ``len(...) == 1`` guard, so they were *latently*
order-dependent: correct today, a refactor away from nondeterminism.
They now use ``min()``; these tests pin the rewritten call sites'
behavior and the linter's verdict on the tree.
"""

from __future__ import annotations

from repro.lint import run_lint
from repro.workloads.registry import ALGORITHMS
from repro.workloads.scenarios import leader_crash, nominal


class TestRewrittenExtractionSites:
    def test_omega_props_reports_the_agreed_leader(self):
        """``RunResult.stabilization()``: ``min(common)`` on agreement."""
        result = nominal(n=4).run(ALGORITHMS["alg1"], seed=0)
        report = result.stabilization(margin=nominal(n=4).margin)
        assert report.holds and report.leader is not None
        # Every correct process converged on the same leader: the
        # singleton extraction must return exactly that value.
        finals = {
            samples[-1][1]
            for samples in result.trace.leader_samples_by_pid().values()
            if samples
        }
        assert finals == {report.leader}

    def test_leadership_checker_agrees_with_the_trace(self):
        """repro.props.checkers: ``min(finals)`` on agreement."""
        scen = leader_crash(n=4)
        result = scen.run(ALGORITHMS["alg1"], seed=0)
        props = result.check_properties(margin=scen.margin)
        assert props.violations() == []
        report = result.stabilization(margin=scen.margin)
        assert report.holds and report.leader_correct

    def test_single_writer_point_names_the_sole_writer(self):
        """repro.analysis.write_stats: ``min(tail_writers)``."""
        from repro.analysis.write_stats import single_writer_point

        scen = nominal(n=4)
        result = scen.run(ALGORITHMS["alg1"], seed=0)
        point = single_writer_point(result.memory, result.horizon)
        report = result.stabilization(margin=scen.margin)
        assert point.reached
        assert point.writer == report.leader

    def test_the_tree_has_no_determinism_findings(self):
        """The bring-up contract: fixes, not grandfathered findings."""
        report = run_lint(families=["determinism"])
        assert report.findings == []
