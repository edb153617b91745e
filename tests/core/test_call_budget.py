"""A deterministic ratchet on Python calls per simulated event.

Wall-clock timing is noisy; the number of function calls ``cProfile``
counts while ``Run.execute`` fires a fixed cell is exact for a given
code, interpreter and seed.  Each test prints its ratio and fails when
it exceeds a ceiling pinned a little above the measured value, so a
change that adds a call to the step path (or brings the observer's
per-sample re-summing back) fails here in a second instead of needing a
paired benchmark run.  Lower the ceiling when you make the path
cheaper; raise it only with a reason in the commit.
"""

from __future__ import annotations

import cProfile

import pytest

from repro.core.algorithm1 import WriteEfficientOmega
from repro.core.algorithm2 import BoundedOmega
from repro.workloads.scenarios import nominal, nominal_emulated, nominal_emulated_atomic


def calls_per_event(scenario, algorithm) -> float:
    """Profiled calls (Python and builtin) per fired event of one fast-mode run."""
    run = scenario.build(algorithm, seed=0, log_reads=False, trace_events=False)
    profile = cProfile.Profile()
    result = profile.runcall(run.execute)
    calls = sum(entry.callcount for entry in profile.getstats())
    events = result.sim.events_fired
    assert events > 1000
    return calls / events


#: (scenario, algorithm, ceiling).  Measured on CPython 3.11 with the
#: pure-Python kernel: 22.00 and 22.09 on the shared cells (33.78 and
#: 34.79 before the fused step and the cached observer); 20.47 on the
#: emulated regular cell and 18.55 on the atomic one, which adds the
#: write-back path (21.16 and 19.22 while retransmission timers were
#: armed through per-event cancellation handles; 24.54 and 22.93 while
#: message deliveries rode an event lane and every phase sent one
#: message per call).  The concatenated pure twin reads 20.48 on the
#: emulated regular cell; a compiled kernel counts fewer calls, never
#: more.
BUDGETS = [
    pytest.param(nominal(n=4, horizon=500.0), WriteEfficientOmega, 22.5, id="shared-alg1"),
    pytest.param(nominal(n=4, horizon=500.0), BoundedOmega, 22.5, id="shared-alg2"),
    pytest.param(nominal_emulated(n=3, horizon=500.0), WriteEfficientOmega, 21.0, id="emulated-alg1"),
    pytest.param(
        nominal_emulated_atomic(n=3, horizon=500.0), WriteEfficientOmega, 19.1, id="emulated-atomic-alg1"
    ),
]


@pytest.mark.parametrize("scenario, algorithm, ceiling", BUDGETS)
def test_calls_per_event_stay_under_the_pinned_ceiling(scenario, algorithm, ceiling):
    ratio = calls_per_event(scenario, algorithm)
    print(f"{scenario.name} x {algorithm.display_name}: {ratio:.2f} calls/event (ceiling {ceiling})")
    assert ratio <= ceiling
