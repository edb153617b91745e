"""``repro lint``: AST-based invariant linter for the reproduction.

The repo's core value is *deterministic, byte-identical* simulation, and
several of its subsystems rely on structural invariants nothing used to
enforce: no simulation module may read the wall clock or ambient
entropy, and no handler module may reach into the event queue's
internals.  This package checks those invariants **statically**:

* :mod:`repro.lint.determinism` -- no wall-clock reads, no ambient
  entropy, no module-level ``random``, no order-dependent set iteration
  in the simulation/summary packages;
* :mod:`repro.lint.dispatch` -- no module outside the kernel touches
  the event queue's internals, and no handler package re-enters
  ``Simulator.run()`` from inside a dispatch callback;
* :mod:`repro.lint.typing_rules` -- the strict-typed module ratchet:
  every function in :data:`repro.lint.config.STRICT_TYPED_MODULES` is
  fully annotated (the AST half of the ``mypy --strict`` gate that
  ``tools/typecheck.py`` runs when mypy is installed).

Findings are suppressible per line (``# repro-lint: disable=<rule>``);
every finding that is not suppressed is fatal.  The CLI surface is
``repro lint`` (:func:`repro.cli.cmd_lint`); the programmatic entry
point is :func:`repro.lint.runner.run_lint`.

That every registry entry is reachable is not a lint rule: it is
behaviour, so ``tests/test_registry_surface.py`` drives ``repro run``
over every scenario factory under every override value, and each
scenario's ``repro check`` status is a required field of its registry
row (:data:`repro.workloads.registry.SCENARIO_REGISTRY`).
"""

from __future__ import annotations

from repro.lint.findings import Finding, SourceFile
from repro.lint.runner import LintReport, run_lint

__all__ = [
    "Finding",
    "LintReport",
    "SourceFile",
    "run_lint",
]
