"""Cross-commit golden digests of the two adversarial searches.

The same-commit determinism tests (run twice, kernel variant vs kernel
variant) cannot see a refactor that changes behaviour *consistently*.
This file pins sha256 digests of everything ``repro chaos`` and ``repro
fuzz`` report -- the ``--json`` payloads (shrunk subjects, oracle-run
counts and pinned repros included) and the persisted corpus keys -- so
a rewrite of the search pipeline must reproduce the exact candidates,
verdicts, shrink trajectories and report bytes of the commit that
generated ``golden_search_digests.json``.  The red runs search under
the ``skip-resync`` and ``single-config`` protocol mutants
(:mod:`tests.mutants`).

Regenerate (only for an *intended* behaviour change)::

    PYTHONPATH=src python -m tests.fuzz.test_search_golden \
        > tests/fuzz/golden_search_digests.json
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path
from typing import Any, Dict, Tuple

from repro.faults.campaign import CampaignConfig, run_campaign
from repro.fuzz.corpus import Corpus
from repro.fuzz.loop import FuzzConfig, run_fuzz
from tests.mutants import AMNESIA_GENOME, MEMBERSHIP_GENOME, MUTANTS

GOLDEN = Path(__file__).with_name("golden_search_digests.json")

#: Small enough for tier-1 wall clock, large enough to batch, reach
#: several signatures and (in the red cells) shrink a real violation.
FUZZ = dict(budget=6, batch=6, jobs=1, horizon=900.0)


def _digest(payload: Any) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _fuzz_fingerprint(config: FuzzConfig, root: Path, initial: Any = ()) -> Dict[str, Any]:
    result = run_fuzz(config, corpus_dir=root, initial=initial)
    corpus = Corpus.load(root)
    return {
        "result": result.to_jsonable(),
        "genomes": sorted(corpus.genomes),
        "coverage": corpus.coverage.keys(),
        "regressions": corpus.regression_items(),
    }


def compute_digests() -> Dict[str, str]:
    """Run every pinned search; ``{label: sha256(report)}``."""
    digests: Dict[str, str] = {}
    clean = CampaignConfig(seed=7, plans=6, horizon=2000.0)
    digests["campaign/clean"] = _digest(run_campaign(clean).to_jsonable())
    with MUTANTS["skip-resync"].applied():
        red = CampaignConfig(seed=0, plans=4, horizon=2000.0)
        digests["campaign/no-resync"] = _digest(run_campaign(red).to_jsonable())
        unshrunk = CampaignConfig(seed=0, plans=4, horizon=2000.0, shrink=False)
        digests["campaign/no-resync-unshrunk"] = _digest(run_campaign(unshrunk).to_jsonable())
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for seed in (0, 3):
            digests[f"fuzz/seed-{seed}"] = _digest(
                _fuzz_fingerprint(FuzzConfig(seed=seed, **FUZZ), root / f"seed-{seed}")
            )
        controls: Tuple[Tuple[str, str, Dict[str, Any], Any], ...] = (
            ("amnesia-probe", "skip-resync", {}, AMNESIA_GENOME),
            ("membership-probe", "single-config", {}, MEMBERSHIP_GENOME),
            ("amnesia-probe-unshrunk", "skip-resync", {"shrink": False}, AMNESIA_GENOME),
        )
        for label, mutant, knobs, genome in controls:
            config = FuzzConfig(**{**FUZZ, "budget": 1, **knobs})
            with MUTANTS[mutant].applied():
                digests[f"fuzz/{label}"] = _digest(
                    _fuzz_fingerprint(config, root / label, [genome])
                )
    return digests


def _mismatches(digests: Dict[str, str]) -> Dict[str, Tuple[Any, Any]]:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {
        label: (golden.get(label), digests.get(label))
        for label in sorted(set(golden) | set(digests))
        if golden.get(label) != digests.get(label)
    }


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
