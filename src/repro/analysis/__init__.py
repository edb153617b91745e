"""Per-figure views and measurements on run traces.

The judgement of Theorems 1-4 lives in :mod:`repro.props` (one
implementation of each property, folded once per run); this package
holds its per-figure views and the measurements that are not theorems:

* :mod:`~repro.analysis.omega_props` -- the Omega specification:
  Validity and the Termination witness (Eventual Leadership is the
  Theorem 1 verdict, :func:`repro.props.checkers.leadership_verdict`);
* :mod:`~repro.analysis.write_stats` -- forever-writer / forever-reader
  censuses, single-writer points and the Figure 5 growth columns, all
  read from the Theorem 2-4 implementations (also Theorems 6, 7 and
  Lemmas 5, 6);
* :mod:`~repro.analysis.lowerbound` -- the Theorem 5 ingredients:
  bounded-state recurrence detection and the writer census the theorem
  predicts;
* :mod:`~repro.analysis.timeline` / :mod:`~repro.analysis.suspicion` --
  leadership timelines and suspicion series;
* :mod:`~repro.analysis.report` -- plain-text tables and series for
  benches and EXPERIMENTS.md.
"""

from repro.analysis.omega_props import check_termination, check_validity
from repro.analysis.suspicion import cumulative_suspicions
from repro.analysis.timeline import TimelineReport, build_timeline, render_timeline
from repro.analysis.write_stats import (
    BoundednessVerdict,
    boundedness,
    forever_readers,
    forever_writers,
    single_writer_point,
    tail_written_registers,
)

__all__ = [
    "BoundednessVerdict",
    "TimelineReport",
    "boundedness",
    "build_timeline",
    "check_termination",
    "check_validity",
    "cumulative_suspicions",
    "forever_readers",
    "forever_writers",
    "render_timeline",
    "single_writer_point",
    "tail_written_registers",
]
