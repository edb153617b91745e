"""repro -- an executable reproduction of
"Electing an Eventual Leader in an Asynchronous Shared Memory System"
(A. Fernandez, E. Jimenez, M. Raynal; DSN 2007 / IRISA PI 1821).

The package builds the paper's system model ``AS[n, AWB]`` as a
deterministic discrete-event simulation and implements, measures and
stress-tests its two Omega (eventual leader) algorithms:

>>> from repro import Run, WriteEfficientOmega
>>> result = Run(WriteEfficientOmega, n=4, seed=1, horizon=500.0).execute()
>>> report = result.stabilization()
>>> report.holds and report.leader_correct
True

See README.md for the tour, DESIGN.md for the system inventory and
EXPERIMENTS.md for the paper-vs-measured record.
"""

from repro.core import (
    BoundedOmega,
    EventuallySynchronousOmega,
    MultiWriterOmega,
    Run,
    RunResult,
    StepCounterOmega,
    WriteEfficientOmega,
)
from repro.sim import CrashPlan, RngRegistry, Simulator

__version__ = "1.0.0"

__all__ = [
    "BoundedOmega",
    "CrashPlan",
    "EventuallySynchronousOmega",
    "MultiWriterOmega",
    "RngRegistry",
    "Run",
    "RunResult",
    "Simulator",
    "StepCounterOmega",
    "WriteEfficientOmega",
    "__version__",
]
