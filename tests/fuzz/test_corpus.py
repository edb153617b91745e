"""Corpus persistence: write-through files, idempotent reloads."""

from __future__ import annotations

import json

import pytest

from repro.faults.plan import FaultEvent
from repro.fuzz.corpus import Corpus
from repro.fuzz.coverage import TraceFeatureMap
from repro.fuzz.genome import BASELINE_GENOME, ScenarioGenome

FAULTED = ScenarioGenome(
    backend="emulated",
    fault_plan=(
        FaultEvent(kind="replica-crash", at=100.0, replica=1),
        FaultEvent(kind="replica-recover", at=300.0, replica=1),
    ),
)

#: The smallest payload a regression slot accepts.
REPRO = {"factory": "fuzz-cell", "kwargs": {}, "algorithm": "alg1", "seed": 0}


class TestInMemory:
    def test_rootless_corpus_never_touches_disk(self):
        corpus = Corpus(None)
        corpus.add_genome(BASELINE_GENOME)
        corpus.save_coverage(3000.0)  # must be a no-op, not a crash
        assert corpus.members() == [BASELINE_GENOME]

    def test_members_are_key_sorted(self):
        corpus = Corpus(None)
        genomes = [BASELINE_GENOME, FAULTED, ScenarioGenome(n=5)]
        for g in genomes:
            corpus.add_genome(g)
        assert [g.key() for g in corpus.members()] == sorted(g.key() for g in genomes)

    def test_add_genome_is_idempotent(self):
        corpus = Corpus(None)
        corpus.add_genome(BASELINE_GENOME)
        corpus.add_genome(BASELINE_GENOME)
        assert len(corpus.genomes) == 1


class TestPersistence:
    def test_round_trip_through_a_directory(self, tmp_path):
        root = tmp_path / "corpus"
        corpus = Corpus(root)
        corpus.add_genome(BASELINE_GENOME)
        corpus.add_genome(FAULTED)
        corpus.coverage = TraceFeatureMap({"stabilized=True": 3})
        corpus.add_regression(FAULTED, REPRO)
        corpus.save_coverage(3000.0)

        loaded = Corpus.load(root)
        assert loaded.members() == corpus.members()
        assert loaded.coverage.keys() == corpus.coverage.keys()
        assert loaded.coverage.hits("stabilized=True") == 3
        assert loaded.regression_items() == corpus.regression_items()

    def test_missing_directory_loads_fresh(self, tmp_path):
        corpus = Corpus.load(tmp_path / "nope")
        assert corpus.members() == []
        assert len(corpus.coverage) == 0

    def test_files_are_content_addressed_and_canonical(self, tmp_path):
        root = tmp_path / "corpus"
        Corpus(root).add_genome(FAULTED)
        path = root / "genomes" / f"{FAULTED.key()}.json"
        assert path.is_file()
        payload = json.loads(path.read_text())
        assert ScenarioGenome.from_jsonable(payload) == FAULTED
        # Canonical bytes: rewriting the same genome changes nothing.
        before = path.read_bytes()
        Corpus.load(root).add_genome(FAULTED)
        assert path.read_bytes() == before

    def test_coverage_file_carries_the_base_horizon(self, tmp_path):
        root = tmp_path / "corpus"
        corpus = Corpus(root)
        corpus.save_coverage(1200.0)
        payload = json.loads((root / "coverage.json").read_text())
        assert payload["base_horizon"] == 1200.0
        assert payload["format"] == 1


class TestTornFiles:
    """A killed run must not be able to poison the next one silently."""

    def _corpus(self, root):
        corpus = Corpus(root)
        corpus.add_genome(FAULTED)
        corpus.add_regression(FAULTED, REPRO)
        corpus.save_coverage(3000.0)

    @pytest.mark.parametrize(
        "relative",
        ["coverage.json", f"genomes/{FAULTED.key()}.json", f"regressions/{FAULTED.key()}.json"],
    )
    def test_a_truncated_file_is_named_in_the_error(self, tmp_path, relative):
        root = tmp_path / "corpus"
        self._corpus(root)
        torn = root / relative
        torn.write_text(torn.read_text()[:17])
        with pytest.raises(ValueError, match="corrupt corpus file") as caught:
            Corpus.load(root)
        assert str(torn) in str(caught.value)

    @pytest.mark.parametrize(
        "relative, content, complaint",
        [
            # Valid JSON, but not the object the slot needs.
            ("genomes/x.json", "[1, 2]", "expected a JSON object, got list"),
            ("coverage.json", "[1]", "expected a JSON object, got list"),
            ("coverage.json", '{"signatures": [1]}', "coverage.json: "),
            ("regressions/x.json", "{}", "pinned repro lacks ['factory', 'kwargs'"),
            ("regressions/x.json", '{"factory": "fuzz-cell", "kwargs": {}}',
             "pinned repro lacks ['algorithm', 'seed']"),
            # A genome from before the resync/transition axes were
            # deleted: refused, never read back half-understood.
            ("genomes/x.json", json.dumps({**FAULTED.to_jsonable(), "resync": True}),
             "unknown genome key(s): ['resync']"),
        ],
        ids=["genome-list", "coverage-list", "coverage-signatures-list",
             "repro-empty", "repro-without-algorithm-and-seed", "genome-with-resync"],
    )
    def test_a_malformed_file_is_named_in_the_error(self, tmp_path, relative, content, complaint):
        root = tmp_path / "corpus"
        bad = root / relative
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_text(content)
        with pytest.raises(ValueError) as caught:
            Corpus.load(root)
        message = str(caught.value)
        assert message.startswith(f"corrupt corpus file {bad}: ")
        assert complaint in message

    def test_a_write_killed_midway_leaves_the_old_file_whole(self, tmp_path, monkeypatch):
        root = tmp_path / "corpus"
        self._corpus(root)
        from pathlib import Path

        real_write = Path.write_text

        def killed_write(path, text, *args, **kwargs):
            real_write(path, text[: len(text) // 2], *args, **kwargs)
            raise KeyboardInterrupt

        monkeypatch.setattr(Path, "write_text", killed_write)
        with pytest.raises(KeyboardInterrupt):
            Corpus.load(root).add_genome(FAULTED)
        monkeypatch.undo()
        # The torn bytes went to a temp file that load never reads.
        assert Corpus.load(root).members() == [FAULTED]
