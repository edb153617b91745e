"""The protocol-mutant harness, judged from pytest.

Every mutant in :data:`tests.mutants.MUTANTS` must die, the harness must
be able to report a survivor, and the two mutants that replace the
deleted production modes must reproduce them byte for byte.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.memory.anomaly import anomaly_history
from repro.memory.emulated import EmulatedMemory
from tests.mutants import MUTANTS, Mutant, cell, judge, main


def test_mutants_killed_n_of_n(capsys):
    code = main()
    out = capsys.readouterr().out
    assert f"mutants killed {len(MUTANTS)}/{len(MUTANTS)}" in out, out
    assert code == 0


def test_a_patch_that_changes_nothing_survives():
    inert = Mutant(patches=(), canary=lambda: anomaly_history("atomic"),
                   judge=MUTANTS["skip-write-back"].judge)
    with mock.patch.dict(MUTANTS, {"inert": inert}):
        verdict = judge("inert")
    assert not verdict.killed
    assert verdict.survived == ["canary clean under the patch"]
    assert "SURVIVED" in verdict.line()


def test_patches_are_undone_on_exit():
    original = EmulatedMemory._begin_recovery
    with MUTANTS["skip-resync"].applied():
        assert EmulatedMemory._begin_recovery is not original
    assert EmulatedMemory._begin_recovery is original


@pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
@pytest.mark.parametrize("seed", [0, 1])
def test_single_config_mutant_is_the_production_mode(algorithm, seed):
    # The benchmark selfcheck still runs transition="single-config";
    # the mutant over the correct mode must be the same run exactly.
    production = cell("membership-canary", algorithm, seed, transition="single-config")
    with MUTANTS["single-config"].applied():
        mutant = cell("membership-canary", algorithm, seed, transition="dual-quorum")
    assert mutant.canonical_json() == production.canonical_json()
