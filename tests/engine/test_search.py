"""The shared search pipeline: oracle, replay, record, settle.

The end-to-end behaviour (real plans and genomes, real shrinkers) is
pinned by ``tests/faults/test_campaign.py``, ``tests/fuzz/test_loop.py``
and the cross-commit digests in ``tests/fuzz/test_search_golden.py``;
this file checks the step itself with a toy subject.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Dict, Tuple

import pytest

from repro.engine import search
from repro.engine.search import Violation, replay, settle, violation_count
from repro.engine.worker import run_point


@dataclass(frozen=True)
class Toy:
    """A subject: a tuple of ints; 'violating' while it contains a 7."""

    items: Tuple[int, ...]

    def to_jsonable(self) -> Any:
        return list(self.items)


def pin(toy: Toy) -> Dict[str, Any]:
    return {"factory": "toy", "kwargs": {"items": list(toy.items)}, "algorithm": "a", "seed": 3}


def drop_one_at_a_time(toy: Toy, is_violating: Callable[[Toy], bool]) -> Any:
    """A greedy shrinker with the shrink_plan / shrink_genome result shape."""
    runs = 0
    current = toy
    for item in toy.items:
        candidate = Toy(tuple(i for i in current.items if i != item))
        runs += 1
        if is_violating(candidate):
            current = candidate
    return SimpleNamespace(toy=current, oracle_runs=runs)


@pytest.fixture
def toy_runs(monkeypatch):
    """Route replays of ``pin`` payloads to a fake run; record them."""
    seen = []

    def fake_run_point(factory, kwargs, algorithm, seed):
        seen.append((factory, tuple(kwargs["items"]), algorithm, seed))
        return SimpleNamespace(
            property_violations=0,
            audit_violations=kwargs["items"].count(7),
            integrity_violations=0,
            valid=True,
            termination_ok=True,
        )

    monkeypatch.setattr(search, "run_point", fake_run_point)
    return seen


#: Each violation class's faulty value and what it adds to the count.
FAULTS = {
    "property_violations": (2, 2),
    "audit_violations": (2, 2),
    "integrity_violations": (2, 2),
    "valid": (False, 1),
    "termination_ok": (False, 1),
}


@pytest.mark.parametrize("field", list(FAULTS))
def test_every_violation_class_counts(field):
    clean = dict(
        property_violations=0, audit_violations=0, integrity_violations=0,
        valid=True, termination_ok=True,
    )
    value, count = FAULTS[field]
    assert violation_count(SimpleNamespace(**clean)) == 0
    assert violation_count(SimpleNamespace(**{**clean, field: value})) == count


def test_replay_is_run_point_on_the_payload():
    payload = {
        "factory": "nominal",
        "kwargs": {"n": 3, "horizon": 600.0},
        "algorithm": "alg1",
        "seed": "4",  # corpus files may carry the seed as text
        "genome": {"ignored": True},
    }
    direct = run_point("nominal", {"n": 3, "horizon": 600.0}, "alg1", 4)
    assert replay(payload).canonical_json() == direct.canonical_json()


def test_settle_shrinks_through_the_pinned_payload_and_pins_the_result(toy_runs):
    violation = settle("toy", Toy((1, 7, 2)), 1, pin=pin, shrink=drop_one_at_a_time, index=5)
    assert violation.shrunk == Toy((7,)) and violation.minimal == Toy((7,))
    assert violation.oracle_runs == 3
    # Every oracle run replayed exactly what pin() would pin.
    assert toy_runs == [
        ("toy", (7, 2), "a", 3), ("toy", (2,), "a", 3), ("toy", (7,), "a", 3)
    ]
    assert violation.repro == pin(Toy((7,)))
    assert violation.to_jsonable() == {
        "index": 5,
        "toy": [1, 7, 2],
        "violations": 1,
        "shrunk": [7],
        "oracle_runs": 3,
        "repro": pin(Toy((7,))),
    }


def test_settle_without_a_shrinker_pins_the_subject_as_found(toy_runs):
    violation = settle("toy", Toy((1, 7, 2)), 4, pin=pin)
    assert violation == Violation("toy", Toy((1, 7, 2)), 4, repro=pin(Toy((1, 7, 2))))
    assert violation.shrunk is None and violation.minimal == Toy((1, 7, 2))
    assert toy_runs == [] and violation.oracle_runs == 0
    assert violation.to_jsonable()["shrunk"] is None
