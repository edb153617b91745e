"""Dispatch safety rule family: handlers stay out of the kernel.

``Simulator.run`` pops entries off its one heap in ``(time, seq)``
order.  A handler that edits the heap directly can break its invariant
or file an entry out of order, and a handler that re-enters
``Simulator.run`` corrupts the drain outright.  Both are operations of
the kernel module alone.  Rules (scoped to the handler packages,
:data:`~repro.lint.config.HANDLER_PACKAGES`):

``dispatch-queue-internals``
    Reads or writes of the queue storage ``Simulator`` owns
    (:data:`~repro.lint.config.QUEUE_PRIVATE_ATTRS`) on anything other
    than ``self`` -- handler modules must go through the public
    ``schedule_*`` methods and ``EventLane.cancel``.
``dispatch-raw-push``
    Any use of ``Simulator``'s raw-producer entry points
    (:data:`~repro.lint.config.RAW_PUSH_ATTRS`: ``push`` and
    ``next_seq``) outside the producer modules
    (:data:`~repro.lint.config.RAW_PUSH_PRODUCERS`).  A raw push skips
    the schedulers' checks, so the few modules that file their own
    entries are named, and every other handler module schedules.
``dispatch-reentrant-run``
    ``<...>.sim.run(...)`` / ``sim.run(...)`` / ``simulator.run(...)``
    calls: a handler executes *inside* ``Simulator.run`` and must
    schedule follow-up events instead of recursing into the loop.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.config import (
    QUEUE_PRIVATE_ATTRS,
    RAW_PUSH_ATTRS,
    in_handler_scope,
    is_raw_push_producer,
)
from repro.lint.findings import Finding, SourceFile

#: Receiver identifiers treated as "the simulator" for the reentrancy
#: check (``sim.run()``, ``self.sim.run()``, ``simulator.run()``...).
_SIM_NAMES = frozenset({"sim", "simulator", "kernel"})


def _receiver_identifier(node: ast.expr) -> str | None:
    """Final identifier of a call receiver (``self.sim`` -> ``sim``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def check(source: SourceFile) -> List[Finding]:
    """Run the dispatch-safety family on one parsed handler module."""
    if source.tree is None or not in_handler_scope(source.path):
        return []
    findings: List[Finding] = []
    producer = is_raw_push_producer(source.path)
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Attribute) and node.attr in QUEUE_PRIVATE_ATTRS:
            receiver = node.value
            if not (isinstance(receiver, ast.Name) and receiver.id == "self"):
                findings.append(
                    Finding(
                        rule="dispatch-queue-internals",
                        path=source.path,
                        line=node.lineno,
                        message=(
                            f"access to Simulator queue internal {node.attr!r}: "
                            "handler modules must use the public "
                            "schedule_* methods and EventLane.cancel"
                        ),
                    )
                )
        elif isinstance(node, ast.Attribute) and node.attr in RAW_PUSH_ATTRS and not producer:
            findings.append(
                Finding(
                    rule="dispatch-raw-push",
                    path=source.path,
                    line=node.lineno,
                    message=(
                        f"use of Simulator.{node.attr} outside the raw producers: "
                        "only the modules in RAW_PUSH_PRODUCERS file their own "
                        "heap entries; schedule through the schedule_* methods"
                    ),
                )
            )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "run"
            and _receiver_identifier(node.func.value) in _SIM_NAMES
        ):
            findings.append(
                Finding(
                    rule="dispatch-reentrant-run",
                    path=source.path,
                    line=node.lineno,
                    message=(
                        "Simulator.run() called from a handler module: "
                        "dispatch callbacks already execute inside the run "
                        "loop; schedule an event instead"
                    ),
                )
            )
    return findings
