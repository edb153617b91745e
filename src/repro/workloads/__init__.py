"""Scenario library and name registries.

Scenarios are named, parameterized run configurations shared by the
test suite, the examples and every benchmark, so "the leader-crash
workload" means the same thing everywhere.  An (algorithm x scenario x
seed) grid of them runs through the experiment engine
(:func:`repro.engine.driver.run_experiment`).
"""

from repro.workloads.scenarios import (
    Scenario,
    all_but_one,
    awb_only,
    capped_timers,
    cascade,
    chaotic_timers,
    ev_sync,
    leader_crash,
    nominal,
    random_faults,
    san,
    scrambled,
    slow_leader_awb,
)

__all__ = [
    "Scenario",
    "all_but_one",
    "awb_only",
    "capped_timers",
    "cascade",
    "chaotic_timers",
    "ev_sync",
    "leader_crash",
    "nominal",
    "random_faults",
    "san",
    "scrambled",
    "slow_leader_awb",
]
