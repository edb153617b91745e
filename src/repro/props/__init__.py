"""The judge of the paper's Theorems 1-4.

The paper's claims are theorems about *behaviors*:

* **Theorem 1** -- eventually every correct process outputs one common
  correct leader;
* **Theorem 2** -- all shared variables except ``PROGRESS[ell]`` stay
  bounded;
* **Theorem 3** -- eventually a single process writes a single
  variable;
* **Theorem 4** -- write-optimality: exactly one forever-writer, the
  minimum any Omega implementation can have.

:mod:`repro.props.checkers` holds the one implementation of each: two
are folds (Theorem 1 over the leader samples, Theorem 2 over the write
log) and two are queries over the memory's write index (Theorems 3 and
4, over one definition of the tail windows).
:func:`repro.props.report.check_properties` judges a finished run with
them, once, into a :class:`~repro.props.report.PropertyReport` --
claimed-vs-measured, aware of which assumption class the scenario
declares (:mod:`repro.props.claims`) -- which the engine's
:class:`~repro.engine.summary.RunSummary` embeds and caches, and whose
measured records it flattens into its census columns, so every sweep
doubles as a theorem audit and a row cannot contradict its verdicts.
:mod:`repro.analysis` offers per-figure views of the same judgement.
"""

from repro.props.checkers import (
    BoundednessMonitor,
    BoundednessVerdict,
    LeadershipVerdict,
    SingleWriterVerdict,
    StabilizationMonitor,
    WriteOptimalityVerdict,
    leadership_verdict,
    progress_register,
    single_writer_verdict,
    write_optimality_verdict,
)
from repro.props.claims import (
    ASSUMPTION_ORDER,
    THEOREM_NAMES,
    assumption_covers,
    expected_theorems,
)
from repro.props.report import PropertyReport, TheoremVerdict, check_properties

__all__ = [
    "ASSUMPTION_ORDER",
    "BoundednessMonitor",
    "BoundednessVerdict",
    "LeadershipVerdict",
    "PropertyReport",
    "SingleWriterVerdict",
    "StabilizationMonitor",
    "THEOREM_NAMES",
    "TheoremVerdict",
    "WriteOptimalityVerdict",
    "assumption_covers",
    "check_properties",
    "expected_theorems",
    "leadership_verdict",
    "progress_register",
    "single_writer_verdict",
    "write_optimality_verdict",
]
