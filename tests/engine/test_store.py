"""The JSONL result store: round-trips, robustness, keying, concurrency."""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.core.algorithm1 import WriteEfficientOmega
from repro.engine import ExperimentSpec, ResultStore, RunSummary, default_results_dir
from repro.engine.worker import CellOutcome
from repro.workloads.scenarios import nominal


def make_summary(seed=0, **overrides):
    base = dict(
        algorithm="alg1",
        scenario="nominal-n3",
        seed=seed,
        n=3,
        horizon=1500.0,
        stabilized=True,
        stabilization_time=65.0,
        leader=1,
        valid=True,
        termination_ok=True,
        forever_writer_count=1,
        forever_writers=frozenset({1}),
        growing_register_count=1,
        single_writer=True,
        total_writes=293,
        total_reads=3507,
        wall_time_s=0.25,
        events_fired=4242,
        leader_correct=True,
        max_suspicion=3.0,
        suspicion_writes_total=7,
        suspicion_writes_tail=0,
    )
    base.update(overrides)
    return RunSummary(**base)


def make_spec():
    return ExperimentSpec.from_objects(
        "store-test", {"alg1": WriteEfficientOmega}, [nominal(n=3, horizon=1500.0)], [0, 1]
    )


class TestRoundTrip:
    def test_jsonable_round_trip_preserves_equality(self):
        summary = make_summary()
        clone = RunSummary.from_jsonable(json.loads(json.dumps(summary.to_jsonable())))
        assert clone == summary
        assert clone.forever_writers == frozenset({1})

    def test_none_fields_survive(self):
        summary = make_summary(stabilized=False, stabilization_time=None, leader=None,
                               max_suspicion=None)
        clone = RunSummary.from_jsonable(summary.to_jsonable())
        assert clone.stabilization_time is None and clone.max_suspicion is None

    def test_canonical_json_ignores_wall_time(self):
        assert (
            make_summary(wall_time_s=0.1).canonical_json()
            == make_summary(wall_time_s=9.9).canonical_json()
        )


class TestStore:
    def _outcomes(self, spec):
        return [
            CellOutcome(key=cell.key, summary=make_summary(seed=cell.seed))
            for cell in spec.cells()
        ]

    def test_append_then_load(self, tmp_path):
        spec, store = make_spec(), ResultStore(tmp_path)
        store.append(spec, self._outcomes(spec))
        loaded = store.load(spec)
        assert set(loaded) == {cell.key for cell in spec.cells()}
        assert loaded[spec.cells()[0].key] == make_summary(seed=0)

    def test_file_named_by_spec_hash(self, tmp_path):
        spec, store = make_spec(), ResultStore(tmp_path)
        path = store.append(spec, self._outcomes(spec))
        assert spec.content_hash() in path.name
        assert path.name.startswith("store-test-")

    def test_header_line_records_spec(self, tmp_path):
        spec, store = make_spec(), ResultStore(tmp_path)
        path = store.append(spec, self._outcomes(spec))
        header = json.loads(path.read_text().splitlines()[0])
        assert header["spec"]["name"] == "store-test"

    def test_failed_outcomes_not_written(self, tmp_path):
        spec, store = make_spec(), ResultStore(tmp_path)
        cells = spec.cells()
        store.append(
            spec,
            [
                CellOutcome(key=cells[0].key, summary=make_summary(seed=0)),
                CellOutcome(key=cells[1].key, error="boom"),
            ],
        )
        assert set(store.load(spec)) == {cells[0].key}

    def test_truncated_line_skipped(self, tmp_path):
        spec, store = make_spec(), ResultStore(tmp_path)
        path = store.append(spec, self._outcomes(spec))
        with path.open("a") as fh:
            fh.write('{"key": ["alg1", "nominal(')  # interrupted write
        assert len(store.load(spec)) == 2

    @pytest.mark.parametrize(
        "damage",
        [b"null\n", b"[1, 2, 3]\n", b'\xff\xfe{"key": \n'],
        ids=["null-line", "array-line", "torn-multibyte-character"],
    )
    def test_damaged_line_skipped(self, tmp_path, damage):
        # Valid JSON that is not an object, and bytes that are not
        # UTF-8, used to raise out of load() and crash `repro sweep`.
        spec, store = make_spec(), ResultStore(tmp_path)
        path = store.append(spec, self._outcomes(spec)[:1])
        with path.open("ab") as fh:
            fh.write(damage)
        store.append(spec, self._outcomes(spec)[1:])
        assert set(store.load(spec)) == {cell.key for cell in spec.cells()}

    def test_missing_file_loads_empty(self, tmp_path):
        assert ResultStore(tmp_path).load(make_spec()) == {}

    def test_renamed_spec_finds_cache_by_content_hash(self, tmp_path):
        spec, store = make_spec(), ResultStore(tmp_path)
        store.append(spec, self._outcomes(spec))
        renamed = ExperimentSpec(
            name="totally-different",
            algorithms=spec.algorithms,
            scenarios=spec.scenarios,
            seeds=spec.seeds,
            window=spec.window,
        )
        loaded = store.load(renamed)
        assert set(loaded) == {cell.key for cell in spec.cells()}


def _append_batch(root: str, barrier, seeds) -> None:
    """Child-process helper: append one batch after the start barrier."""
    store = ResultStore(root)
    spec = make_spec()
    outcomes = [
        CellOutcome(key=("alg1", "nominal-n3", seed), summary=make_summary(seed=seed))
        for seed in seeds
    ]
    barrier.wait()
    store.append(spec, outcomes)


class TestConcurrentAppend:
    """Two sweeps of the same spec appending at once (the cross-process
    corruption fixed in the store): exactly one header, no interleaved
    or torn lines, every appended row recovered."""

    def test_single_header_and_no_interleaving(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        batches = [range(0, 40), range(40, 80)]
        barrier = ctx.Barrier(len(batches))
        procs = [
            ctx.Process(target=_append_batch, args=(str(tmp_path), barrier, seeds))
            for seeds in batches
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0

        spec, store = make_spec(), ResultStore(tmp_path)
        lines = store.path_for(spec).read_text().splitlines()
        payloads = [json.loads(line) for line in lines]  # no torn lines
        # Exactly one process won the exclusive create and wrote the
        # header (its position depends on who appended first).
        assert sum(1 for p in payloads if "spec" in p) == 1
        loaded = store.load(spec)
        assert len(loaded) == 80
        assert {key[2] for key in loaded} == set(range(80))


class TestResultsDirResolution:
    def test_env_override_wins(self, monkeypatch, tmp_path):
        target = tmp_path / "elsewhere"
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(target))
        assert default_results_dir() == target
        assert ResultStore().root == target

    def test_default_is_anchored_at_the_repo_root(self, monkeypatch):
        # Running from any CWD must resolve the same cache: the default
        # is absolute and sits next to this checkout's pyproject.toml.
        monkeypatch.delenv("REPRO_RESULTS_DIR", raising=False)
        resolved = default_results_dir()
        assert resolved.is_absolute()
        assert resolved.parts[-2:] == ("results", "engine")
        assert (resolved.parent.parent / "pyproject.toml").is_file()
