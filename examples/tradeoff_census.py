"""The paper's headline trade-off, measured live.

Bounded shared memory <-> number of eventual writers: Algorithm 1
converges to a single writer but one register grows forever; Algorithm 2
keeps every register bounded but every correct process writes forever --
and Theorem 5 proves you cannot have both.  This example prints the
census for both algorithms plus the Section 3.5 variants.

Run:  python examples/tradeoff_census.py
"""

from __future__ import annotations

from repro import (
    BoundedOmega,
    EventuallySynchronousOmega,
    MultiWriterOmega,
    Run,
    StepCounterOmega,
    WriteEfficientOmega,
)
from repro.analysis.report import format_table
from repro.analysis.write_stats import forever_writers, growing_registers


def census(algorithm_cls, horizon, seed=9):
    result = Run(algorithm_cls, n=4, seed=seed, horizon=horizon).execute()
    report = result.stabilization(margin=horizon * 0.05)
    writers = forever_writers(result.memory, horizon, window=horizon / 20)
    growing = growing_registers(result.memory, horizon)
    return [
        algorithm_cls.display_name,
        report.holds,
        len(writers),
        len(growing) == 0,
        sorted(growing) if growing else "-",
    ]


def main() -> None:
    print("Forever-writer / boundedness census (n=4, nominal conditions)\n")
    rows = [
        census(WriteEfficientOmega, 3000.0),
        census(BoundedOmega, 9000.0),
        census(MultiWriterOmega, 3000.0),
        census(StepCounterOmega, 3000.0),
        census(EventuallySynchronousOmega, 3000.0),
    ]
    print(
        format_table(
            ["algorithm", "stabilized", "forever writers", "bounded memory", "unbounded regs"],
            rows,
        )
    )
    print(
        "\nTheorem 5 (Corollary 1): with bounded memory, runs exist where ALL"
        "\nprocesses write forever -- Algorithm 2 pays that price by design, and"
        "\nno algorithm can avoid it.  Algorithm 1 sits on the other side of the"
        "\ntrade-off: one writer, one unbounded register."
    )


if __name__ == "__main__":
    main()
