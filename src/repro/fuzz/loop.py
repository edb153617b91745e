"""The coverage-guided fuzz loop: mutate, batch-run, judge, shrink.

One iteration builds a batch of unseen genomes -- mutations of corpus
members, with a seeded-random infusion -- and runs it through the
parallel experiment engine (one :class:`~repro.engine.spec.ExperimentSpec`
per algorithm in the batch, ``cache=False``: fuzz cells are one-shot,
caching them would only bloat the result store).  Every summary is
judged twice:

* **novelty** -- its :func:`~repro.fuzz.coverage.signature` is offered
  to the corpus's :class:`~repro.fuzz.coverage.TraceFeatureMap`; novel
  genomes join the corpus and become mutation parents;
* **violation** -- the search oracle
  (:func:`repro.engine.search.violation_count`: theorem monitors +
  history audit + write-ack integrity) must be zero.  A violating
  genome goes through the shared :func:`repro.engine.search.settle`
  step (shrunk by :func:`repro.fuzz.shrink.shrink_genome`, replaying
  in-process with the exact worker semantics) and its pinned repro
  joins the corpus as a regression payload.

What is the fuzzer's own is therefore candidate generation, batching,
coverage and the corpus; the oracle, the violation record, the replay
and the judge -> shrink -> pin step are :mod:`repro.engine.search`'s,
shared with :mod:`repro.faults.campaign`.

Determinism: every random draw comes from one ``Random`` stream seeded
by the config, every run uses the config seed, and batches are
deduplicated by genome content key -- so the genome sequence, the
coverage map and every verdict are a pure function of
``(config, corpus)``.  With ``jobs=1`` every cell, shrink replay and
pinned-repro replay runs in the calling process, so a test that patches
the emulation sees the patch reach the whole search.

This module imports the workloads/engine stack; like
:mod:`repro.faults.campaign` it is deliberately not re-exported from
:mod:`repro.fuzz` -- import it explicitly, as ``repro fuzz`` does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.driver import _error_head, run_experiment
from repro.engine.search import Violation, check_search_config, replay, settle, violation_count
from repro.engine.spec import AlgorithmRef, ExperimentSpec, ScenarioRef
# ``summarize_run`` is unused here, but the repo benchmark's span
# recorder (bench/spans.py) rebinds it on this module by name.
from repro.engine.summary import RunSummary, summarize_run  # noqa: F401
from repro.fuzz.corpus import Corpus
from repro.fuzz.coverage import signature
from repro.fuzz.genome import DEFAULT_BASE_HORIZON, ScenarioGenome
from repro.fuzz.mutate import mutate, random_genome
from repro.fuzz.shrink import shrink_genome

#: Probability of mutating a corpus parent (vs drawing a random genome)
#: once the corpus is non-empty.
PARENT_BIAS = 0.75

#: Give up composing a batch after this many duplicate draws per slot.
DEDUP_ATTEMPTS = 12


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs of one fuzz run (all plain data)."""

    #: Run seed: the mutation stream and every cell's run seed.
    seed: int = 0
    #: Total genomes to run (shrink-oracle replays not counted).
    budget: int = 50
    #: Genomes per engine batch.
    batch: int = 16
    #: Worker processes per batch (None/0 -> one per CPU).
    jobs: Optional[int] = None
    #: Base horizon genomes derive their run horizons from.
    horizon: float = DEFAULT_BASE_HORIZON
    #: Delta-debug violating genomes down to minimal pinned repros.
    shrink: bool = True
    #: Mutation steps per seeded random genome.
    max_mutations: int = 3

    def __post_init__(self) -> None:
        check_search_config(self, {"budget": 1, "batch": 1})


@dataclass
class FuzzResult:
    """What one fuzz run produced."""

    config: FuzzConfig
    genomes_run: int = 0
    #: Signatures first reached by this run.
    new_signatures: int = 0
    #: Coverage-map size after the run.
    total_signatures: int = 0
    #: Corpus size after the run.
    corpus_size: int = 0
    violations: List[Violation] = field(default_factory=list)
    #: Engine cell failures (infrastructure errors, not oracle verdicts).
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every genome ran clean."""
        return not self.violations and not self.failures

    def to_jsonable(self) -> Dict[str, Any]:
        """The ``repro fuzz --json`` payload."""
        return {
            "seed": self.config.seed,
            "budget": self.config.budget,
            "horizon": self.config.horizon,
            "genomes_run": self.genomes_run,
            "new_signatures": self.new_signatures,
            "total_signatures": self.total_signatures,
            "corpus_size": self.corpus_size,
            "failures": list(self.failures),
            "violations": [
                dict(v.to_jsonable(), complexity=v.minimal.complexity())
                for v in self.violations
            ],
        }


# ----------------------------------------------------------------------
def pinned_repro(genome: ScenarioGenome, config: FuzzConfig) -> Dict[str, Any]:
    """The engine-ready pinned repro payload for ``genome``.

    Same shape as the chaos campaigns': factory + kwargs + algorithm +
    seed (``repro run``-able via the registry), plus the genome itself
    so the corpus stays mutation-aware.  :func:`repro.engine.search.replay`
    of it is :func:`~repro.engine.worker.run_point` on the same cell the
    batched forward path ran (fast mode: no read log, no event trace),
    so the shrinker's oracle sees byte-identical summaries.
    """
    return {
        "factory": "fuzz-cell",
        "kwargs": genome.scenario_kwargs(config.horizon),
        "algorithm": genome.algorithm,
        "seed": config.seed,
        "genome": genome.to_jsonable(),
    }


def _run_batch(
    genomes: Sequence[ScenarioGenome], config: FuzzConfig
) -> Tuple[List[Optional[RunSummary]], List[str]]:
    """Run a deduplicated batch through the parallel engine.

    Cells are grouped into one spec per algorithm (a spec is a grid, so
    mixed-algorithm batches would run every algorithm on every
    scenario).  Returns per-genome summaries (None where the cell
    failed) plus the failure descriptions.
    """
    summaries: List[Optional[RunSummary]] = [None] * len(genomes)
    failures: List[str] = []
    by_algorithm: Dict[str, List[int]] = {}
    for index, genome in enumerate(genomes):
        by_algorithm.setdefault(genome.algorithm, []).append(index)
    for algorithm in sorted(by_algorithm):
        slots = by_algorithm[algorithm]
        spec = ExperimentSpec(
            name="fuzz",
            algorithms=(AlgorithmRef(label=algorithm, target=algorithm),),
            scenarios=tuple(
                ScenarioRef.make("fuzz-cell", genomes[i].scenario_kwargs(config.horizon))
                for i in slots
            ),
            seeds=(config.seed,),
        )
        report = run_experiment(spec, jobs=config.jobs, cache=False, strict=False)
        failed_keys = {outcome.key for outcome in report.failures}
        rows = iter(report.rows)
        for slot, cell in zip(slots, spec.cells()):
            if cell.key in failed_keys:
                continue
            summaries[slot] = next(rows)
        for outcome in report.failures:
            failures.append(f"{outcome.key}: {_error_head(outcome.error)}")
    return summaries, failures


# ----------------------------------------------------------------------
def run_fuzz(
    config: FuzzConfig,
    *,
    corpus_dir: Optional[Path] = None,
    initial: Sequence[ScenarioGenome] = (),
    progress: Optional[Callable[[ScenarioGenome, RunSummary, bool, int], None]] = None,
) -> FuzzResult:
    """Run one coverage-guided fuzz session.

    ``initial`` genomes are run first (tests inject hand-built canary
    genomes this way); they count against the budget.
    ``progress`` is an optional ``callable(genome, summary, novel,
    violations)`` hook for per-genome CLI lines.
    """
    rng = random.Random(f"fuzz:{config.seed}")
    corpus = Corpus.load(corpus_dir)
    result = FuzzResult(config=config)
    seen = set(corpus.genomes)
    pending: List[ScenarioGenome] = []
    for genome in initial:
        if genome.key() not in seen:
            seen.add(genome.key())
            pending.append(genome)

    def next_batch() -> List[ScenarioGenome]:
        batch: List[ScenarioGenome] = []
        want = min(config.batch, config.budget - result.genomes_run)
        while pending and len(batch) < want:
            batch.append(pending.pop(0))
        parents = corpus.members()
        attempts = 0
        while len(batch) < want and attempts < want * DEDUP_ATTEMPTS:
            attempts += 1
            if parents and rng.random() < PARENT_BIAS:
                genome = mutate(
                    parents[rng.randrange(len(parents))],
                    rng,
                    base_horizon=config.horizon,
                )
            else:
                genome = random_genome(
                    rng,
                    base_horizon=config.horizon,
                    max_mutations=config.max_mutations,
                )
            if genome.key() in seen:
                continue
            seen.add(genome.key())
            batch.append(genome)
        return batch

    while result.genomes_run < config.budget:
        batch = next_batch()
        if not batch:
            break  # mutation space locally exhausted around this corpus
        summaries, failures = _run_batch(batch, config)
        result.failures.extend(failures)
        result.genomes_run += len(batch)
        for genome, summary in zip(batch, summaries):
            if summary is None:
                continue
            novel = corpus.coverage.observe(signature(summary))
            if novel:
                result.new_signatures += 1
                corpus.add_genome(genome)
            count = violation_count(summary)
            if progress is not None:
                progress(genome, summary, novel, count)
            if count:
                violation = settle(
                    "genome",
                    genome,
                    count,
                    pin=lambda candidate: pinned_repro(candidate, config),
                    shrink=shrink_genome if config.shrink else None,
                )
                corpus.add_regression(violation.minimal, violation.repro)
                result.violations.append(violation)

    corpus.save_coverage(config.horizon)
    result.total_signatures = len(corpus.coverage)
    result.corpus_size = len(corpus.genomes)
    return result


# ----------------------------------------------------------------------
def replay_regressions(corpus_dir: Path) -> List[Tuple[str, Dict[str, Any], int]]:
    """Re-run every pinned regression in ``corpus_dir``.

    Returns ``(key, payload, violation_count)`` per regression, in
    deterministic key order.  A fixed regression replays with zero
    violations; an unfixed one stays red -- ``repro fuzz --replay``
    exits non-zero on any red entry.
    """
    return [
        (key, payload, violation_count(replay(payload)))
        for key, payload in Corpus.load(corpus_dir).regression_items()
    ]


__all__ = [
    "DEDUP_ATTEMPTS",
    "FuzzConfig",
    "FuzzResult",
    "PARENT_BIAS",
    "pinned_repro",
    "replay_regressions",
    "run_fuzz",
]
