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


def calls_per_event(scenario, algorithm, traced: bool) -> float:
    """Profiled calls (Python and builtin) per fired event of one run:
    fast mode, or the scenario's own traced mode (read log on)."""
    if traced:
        run = scenario.build(algorithm, seed=0)
        assert run.memory.log_reads
    else:
        run = scenario.build(algorithm, seed=0, log_reads=False, trace_events=False)
    profile = cProfile.Profile()
    result = profile.runcall(run.execute)
    calls = sum(entry.callcount for entry in profile.getstats())
    events = result.sim.events_fired
    assert events > 1000
    return calls / events


#: (scenario, algorithm, traced, ceiling).  Measured on CPython 3.11:
#: 10.61 and 11.12 on the shared cells, 9.28 on
#: the emulated regular cell and 8.22 on the atomic one, which adds the
#: write-back path.  Traced, where every read also lands in the columnar
#: read log: 14.41 / 14.68 on the shared cells and 9.90 on the emulated
#: one -- these rows pin the read-log append.  History, newest first:
#:
#: * fast 12.41 / 12.94 / 13.16 / 11.92 and traced 16.21 / 16.50 / 13.79
#:   while every step and every message delivery went through a
#:   ``schedule_after`` frame, every ``send`` went through ``multicast``
#:   with a one-fate tuple, a synchronous channel's delay was one
#:   ``delivery_delay`` call per message, and every quorum op armed its
#:   own retry token (a lane frame to arm, another to cancel at the
#:   finish, and a stale pop, with its ``fire`` frame, per finished op);
#: * fast 14.94 / 15.34 / 14.48 / 12.98 and traced 18.74 / 18.90 / 15.10
#:   while the queue filed same-time entries in collision buckets (three
#:   dict operations on float keys per event plus counter stores at each
#:   batch boundary), the observer re-ran its lexmin on every sample and
#:   channel delays were drawn through ``Random.uniform``;
#: * fast 15.89 / 16.29 / 15.47 / 13.97 and traced 19.69 / 19.85 / 16.09
#:   while every plain schedule looked its event kind's id up with a
#:   ``dict.get`` method call;
#: * emulated 19.36, atomic 17.90 and traced emulated 19.99 while every
#:   delivery went through a ``functools.partial``, the network's own
#:   counting frame and two string-compare dispatch ladders (the
#:   emulation's and the replica's), every reply went through
#:   ``send -> multicast``, and every interval op built a resume closure;
#: * fast 16.05 / 16.40 / 19.39 / 17.92 and traced 19.85 / 19.96 / 20.01
#:   while the observer appended one ``(time, pid, leader)`` row per
#:   live pid per pass, through a trace method call each;
#: * fast 18.38 / 18.76 / 19.78 / 18.14 and traced 20.66 / 20.90 / 20.15
#:   while every read also went through a memory hook that bumped a
#:   per-pid counter and stamped a per-pid last-read time, and every
#:   write kept per-pid counters and times beside the write log;
#: * fast 19.54 / 19.74 / 20.06 / 18.31 and traced 21.82 / 21.88 / 20.43
#:   while every timer arming built a ``TimerHandle`` and wrote a trace
#:   row, and every expiry wrote another;
#: * traced 21.82 / 21.88 / 20.43 too while every logged read built a
#:   ``ReadRecord`` (the columns saved allocations, not calls);
#: * 22.00 / 22.09 / 20.47 / 18.55 while every register read built a
#:   fresh ``ReadReg``, T1 collected its ``(count, id)`` pairs into a
#:   list for ``lexmin_pair``, a delay draw called ``Random.uniform``
#:   and a task's first turn took its own branch;
#: * emulated 21.16 and atomic 19.22 while retransmission timers were
#:   armed through per-event cancellation handles; 24.54 and 22.93
#:   while message deliveries rode an event lane and every phase sent
#:   one message per call;
#: * shared 33.78 and 34.79 before the fused step and the cached
#:   observer.
#:
#: A ceiling only ever comes down: a change that needs more calls per
#: event than its row allows is a regression of the hot path.
BUDGETS = [
    pytest.param(nominal(n=4, horizon=500.0), WriteEfficientOmega, False, 11.11, id="shared-alg1"),
    pytest.param(nominal(n=4, horizon=500.0), BoundedOmega, False, 11.62, id="shared-alg2"),
    pytest.param(nominal_emulated(n=3, horizon=500.0), WriteEfficientOmega, False, 9.78, id="emulated-alg1"),
    pytest.param(
        nominal_emulated_atomic(n=3, horizon=500.0), WriteEfficientOmega, False, 8.72, id="emulated-atomic-alg1"
    ),
    pytest.param(nominal(n=4, horizon=500.0), WriteEfficientOmega, True, 14.91, id="traced-shared-alg1"),
    pytest.param(nominal(n=4, horizon=500.0), BoundedOmega, True, 15.18, id="traced-shared-alg2"),
    pytest.param(nominal_emulated(n=3, horizon=500.0), WriteEfficientOmega, True, 10.40, id="traced-emulated-alg1"),
]


@pytest.mark.parametrize("scenario, algorithm, traced, ceiling", BUDGETS)
def test_calls_per_event_stay_under_the_pinned_ceiling(scenario, algorithm, traced, ceiling):
    ratio = calls_per_event(scenario, algorithm, traced)
    mode = "traced" if traced else "fast"
    print(f"{mode} {scenario.name} x {algorithm.display_name}: {ratio:.2f} calls/event (ceiling {ceiling})")
    assert ratio <= ceiling
