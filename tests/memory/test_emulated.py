"""Unit tests of the ABD quorum emulation (no process runtime)."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.memory.emulated import EmulatedMemory, EmulationConfig, LINK_MODELS
from repro.memory.register import OwnershipError
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry


def make_memory(seed: int = 7, **knobs):
    """A started EmulatedMemory with one register PROG owned by pid 0."""
    sim = Simulator()
    mem = EmulatedMemory(
        clock=lambda: sim.now,
        sim=sim,
        rng=RngRegistry(seed),
        config=EmulationConfig.from_dict(knobs),
    )
    reg = mem.create_register("PROG", owner=0, initial=0, critical=True)
    mem.start(horizon=10_000.0)
    return sim, mem, reg


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
def test_config_defaults_round_trip():
    config = EmulationConfig()
    assert EmulationConfig.from_dict(config.to_dict()) == config


#: ``to_dict`` output of the default config and of one exercising every
#: field (ints where floats are expected, unsorted keys), captured at
#: the commit before the serialisation was derived from
#: ``dataclasses.fields``: shapes, key order and defaults are frozen.
_DEFAULT_JSON = (
    '{"replicas": 3, "links": "sync", "link_params": {}, "retry_interval": 20.0, '
    '"retry_policy": "fixed", "retry_cap": 160.0, "retry_jitter": 0.25, '
    '"replica_crash_times": {}, "fault_plan": [], '
    '"membership_plan": [], "transfer_delay": 150.0, "transition": "dual-quorum", '
    '"consistency": "regular", "record_history": false}'
)
_FULL_PAYLOAD = {
    "replicas": 4, "links": "lossy", "link_params": {"loss": 0.1, "delay_hi": 2.0},
    "retry_interval": 5, "retry_policy": "backoff", "retry_cap": 40, "retry_jitter": 0.1,
    "replica_crash_times": {"4": 900, "1": 300.5},
    "fault_plan": [
        {"kind": "replica-crash", "at": 100.0, "replica": 0},
        {"kind": "replica-recover", "at": 200.0, "replica": 0},
    ],
    "membership_plan": [{"kind": "join", "at": 50, "replica": 4}],
    "transfer_delay": 30, "transition": "single-config", "consistency": "atomic",
    "record_history": 1,
}
_FULL_JSON = (
    '{"replicas": 4, "links": "lossy", "link_params": {"delay_hi": 2.0, "loss": 0.1}, '
    '"retry_interval": 5.0, "retry_policy": "backoff", "retry_cap": 40.0, '
    '"retry_jitter": 0.1, "replica_crash_times": {"1": 300.5, "4": 900.0}, '
    '"fault_plan": [{"kind": "replica-crash", "at": 100.0, "replica": 0}, '
    '{"kind": "replica-recover", "at": 200.0, "replica": 0}], '
    '"membership_plan": [{"kind": "join", "at": 50.0, "replica": 4}], '
    '"transfer_delay": 30.0, "transition": "single-config", "consistency": "atomic", '
    '"record_history": true}'
)


def test_config_json_shapes_are_frozen():
    assert json.dumps(EmulationConfig().to_dict()) == _DEFAULT_JSON
    assert EmulationConfig.from_dict({}) == EmulationConfig()
    full = EmulationConfig.from_dict(_FULL_PAYLOAD)
    assert json.dumps(full.to_dict()) == _FULL_JSON
    assert EmulationConfig.from_dict(full.to_dict()) == full
    assert len(dataclasses.fields(EmulationConfig)) == 14
    # Empty / null non-scalars fall back to their defaults.
    assert EmulationConfig.from_dict(
        {"link_params": None, "replica_crash_times": None, "fault_plan": None,
         "membership_plan": None}
    ) == EmulationConfig()


def test_spec_content_hash_is_unmoved():
    # Content hashes key the on-disk result cache; a serialisation
    # refactor must not orphan it.  Value captured at the same commit.
    from repro.engine.spec import AlgorithmRef, ExperimentSpec, ScenarioRef

    spec = ExperimentSpec(
        name="pin",
        algorithms=(AlgorithmRef("alg1", "alg1"),),
        scenarios=(
            ScenarioRef.make(
                "chaos",
                {"n": 3, "horizon": 3000.0, "resync": False, "retry_policy": "backoff"},
            ),
        ),
        seeds=(0, 1),
        membership="churn",
    )
    assert spec.content_hash() == "2e3023d21a4ea879"


def test_config_rejects_unknown_options():
    with pytest.raises(ValueError, match="unknown emulation option"):
        EmulationConfig.from_dict({"replica": 3})


def test_config_rejects_unknown_link_model():
    with pytest.raises(ValueError, match="unknown link model"):
        EmulationConfig(links="carrier-pigeon")


def test_config_rejects_majority_crash():
    with pytest.raises(ValueError, match="minority"):
        EmulationConfig(replicas=3, replica_crash_times=((0, 5.0), (1, 6.0)))


def test_config_minority_crash_allowed():
    config = EmulationConfig(replicas=5, replica_crash_times=((0, 5.0), (1, 6.0)))
    assert config.majority == 3


def test_link_model_registry_covers_adversaries():
    assert {"sync", "timely", "lossy", "gst-ramp"} <= set(LINK_MODELS)


def test_link_model_registry_covers_mutating_faults():
    assert {"corruption", "duplication"} <= set(LINK_MODELS)


def test_config_rejects_unknown_consistency():
    with pytest.raises(ValueError, match="unknown consistency level"):
        EmulationConfig(consistency="sequential")


def test_config_consistency_round_trip():
    config = EmulationConfig(consistency="atomic", record_history=True)
    assert EmulationConfig.from_dict(config.to_dict()) == config
    assert config.to_dict()["consistency"] == "atomic"
    assert config.to_dict()["record_history"] is True


def test_recorder_and_regular_reads_are_the_defaults():
    """Perf profiles must not silently pay for write-backs or history."""
    config = EmulationConfig()
    assert config.consistency == "regular"
    assert config.record_history is False


# ----------------------------------------------------------------------
# Quorum operations
# ----------------------------------------------------------------------
def test_write_completes_on_majority_and_mirrors_locally():
    sim, mem, reg = make_memory()
    done = []
    mem.emu_write(0, reg, 42, done.append)
    assert reg.peek() == 0  # not yet: acks in flight
    sim.run(until=5.0)
    assert done == [None]
    assert reg.peek() == 42  # local mirror updated at quorum time
    assert [rec.value for rec in mem.write_log] == [42]
    assert mem.writes_completed == 1
    # All three replicas eventually hold the value.
    assert all(r.store["PROG"][1] == 42 for r in mem.replicas)


def test_read_returns_latest_completed_write():
    sim, mem, reg = make_memory()
    mem.emu_write(0, reg, 7, lambda _: None)
    sim.run(until=5.0)
    got = []
    mem.emu_read(3, reg, got.append)
    sim.run(until=10.0)
    assert got == [7]
    assert mem.reads_by_pid[3] == 1
    assert reg.read_count == 1  # the per-register counter stays exact


def test_read_of_initial_value():
    sim, mem, reg = make_memory()
    got = []
    mem.emu_read(2, reg, got.append)
    sim.run(until=5.0)
    assert got == [0]


def test_ownership_checked_synchronously():
    sim, mem, reg = make_memory()
    with pytest.raises(OwnershipError):
        mem.emu_write(1, reg, 9, lambda _: None)
    assert mem.total_writes == 0


def test_timestamps_monotone_per_register():
    sim, mem, reg = make_memory()
    for value in (1, 2, 3):
        mem.emu_write(0, reg, value, lambda _: None)
        sim.run(until=sim.now + 5.0)
    ts, stored = mem.replicas[0].store["PROG"]
    assert stored == 3 and ts == (3, 0)


def test_minority_replica_crash_tolerated():
    sim, mem, reg = make_memory(replicas=3, replica_crash_times={"0": 1.0})
    sim.run(until=2.0)  # let the replica crash
    assert mem.live_replicas == 2
    done = []
    mem.emu_write(0, reg, 5, done.append)
    got = []
    mem.emu_read(1, reg, got.append)
    sim.run(until=10.0)
    assert done == [None] and got and got[0] in (0, 5)


def test_lossy_links_complete_via_retransmission():
    sim, mem, reg = make_memory(
        links="lossy",
        link_params={"loss": 0.4, "lo": 0.5, "hi": 2.0, "cap": 4.0},
        retry_interval=5.0,
    )
    done = []
    for value in (1, 2):
        mem.emu_write(0, reg, value, done.append)
        sim.run(until=sim.now + 200.0)
    assert done == [None, None]
    assert reg.peek() == 2


def test_mwmr_write_and_fetch_add():
    sim = Simulator()
    mem = EmulatedMemory(clock=lambda: sim.now, sim=sim, rng=RngRegistry(3))
    counter = mem.create_mwmr("SUSP", initial=0)
    mem.start(horizon=1000.0)
    old = []
    mem.emu_fetch_add(1, counter, 1, old.append)
    sim.run(until=10.0)
    mem.emu_fetch_add(2, counter, 1, old.append)
    sim.run(until=20.0)
    assert old == [0, 1]
    assert counter.peek() == 2
    # fetch&add counts one read plus one write, like the shared backend.
    assert mem.total_reads == 2 and mem.total_writes == 2
    done = []
    mem.emu_write(3, counter, 10, done.append)
    sim.run(until=30.0)
    assert done == [None] and counter.peek() == 10


def test_start_twice_rejected():
    sim, mem, _ = make_memory()
    with pytest.raises(RuntimeError, match="already started"):
        mem.start(horizon=1.0)


def test_operations_before_start_rejected():
    """Without replicas an op would hang forever; it must raise instead."""
    sim = Simulator()
    mem = EmulatedMemory(clock=lambda: sim.now, sim=sim, rng=RngRegistry(1))
    reg = mem.create_register("R", owner=0, initial=0)
    with pytest.raises(RuntimeError, match="not started"):
        mem.emu_read(0, reg, lambda _: None)
    with pytest.raises(RuntimeError, match="not started"):
        mem.emu_write(0, reg, 1, lambda _: None)


# ----------------------------------------------------------------------
# Atomic consistency level (write-back reads) and the history recorder
# ----------------------------------------------------------------------
def test_atomic_read_runs_a_write_back_phase():
    """An atomic read costs a second round trip and counts a write-back."""
    _, mem_r, reg_r = make_memory()
    _, mem_a, reg_a = make_memory(consistency="atomic")
    for mem, reg in ((mem_r, reg_r), (mem_a, reg_a)):
        mem.emu_write(0, reg, 5, lambda _: None)
        mem._sim.run(until=5.0)
        mem.emu_read(1, reg, lambda _: None)
        mem._sim.run(until=10.0)
    assert mem_r.write_backs == 0
    assert mem_a.write_backs == 1
    # sync links, delta 0.25: one round trip vs two.
    assert mem_r.read_op_latency == pytest.approx(0.5)
    assert mem_a.read_op_latency == pytest.approx(1.0)


def test_atomic_write_back_propagates_to_lagging_replicas():
    """The write-back applies the read value at replicas the original
    write has not reached yet (here: simulated by a fresh value poke on
    a majority only -- the anomaly module pins the full scenario)."""
    sim, mem, reg = make_memory(consistency="atomic", replicas=3)
    mem.emu_write(0, reg, 7, lambda _: None)
    sim.run(until=5.0)
    # Regress one replica by hand: a write-back must repair it.
    mem.replicas[2].store["PROG"] = ((0, -1), 0)
    got = []
    mem.emu_read(1, reg, got.append)
    sim.run(until=10.0)
    assert got == [7]
    assert mem.replicas[2].store["PROG"] == ((1, 0), 7)


def test_atomic_mwmr_read_write_back():
    """The (counter, pid)-stamped multi-writer path write-backs too."""
    sim = Simulator()
    mem = EmulatedMemory(
        clock=lambda: sim.now, sim=sim, rng=RngRegistry(3),
        config=EmulationConfig(consistency="atomic"),
    )
    counter = mem.create_mwmr("SUSP", initial=0)
    mem.start(horizon=1000.0)
    mem.emu_fetch_add(1, counter, 1, lambda _: None)
    sim.run(until=10.0)
    got = []
    mem.emu_read(2, counter, got.append)
    sim.run(until=20.0)
    assert got == [1]
    assert mem.write_backs == 1  # the fetch&add's own write is not one


def test_history_recorder_off_by_default():
    sim, mem, reg = make_memory()
    mem.emu_write(0, reg, 1, lambda _: None)
    sim.run(until=5.0)
    assert mem.op_history == []
    assert mem.recorded_history() == []


def test_history_recorder_records_completed_intervals():
    sim, mem, reg = make_memory(record_history=True)
    mem.emu_write(0, reg, 1, lambda _: None)
    sim.run(until=5.0)
    mem.emu_read(1, reg, lambda _: None)
    sim.run(until=10.0)
    kinds = [(rec.kind, rec.ts, rec.value) for rec in mem.recorded_history()]
    assert kinds == [("write", (1, 0), 1), ("read", (1, 0), 1)]
    write, read = mem.recorded_history()
    assert write.inv == 0.0 and write.resp == pytest.approx(0.5)
    assert read.inv == 5.0 and read.resp == pytest.approx(5.5)


def test_history_recorder_reports_pending_write_as_unresponded():
    """A write still in flight at the end carries resp = inf, so a
    concurrent read returning its timestamp is not a phantom."""
    import math

    sim, mem, reg = make_memory(record_history=True)
    mem.emu_write(0, reg, 1, lambda _: None)  # no sim.run: stays pending
    (pending,) = mem.recorded_history()
    assert pending.kind == "write" and pending.resp == math.inf
    assert mem.op_history == []  # nothing completed


def test_duplication_links_are_absorbed():
    """Duplicate deliveries must not disturb the protocol (idempotent
    timestamped application; completed ops drop late acks)."""
    sim, mem, reg = make_memory(links="duplication", link_params={"rate": 1.0})
    done, got = [], []
    mem.emu_write(0, reg, 9, done.append)
    sim.run(until=10.0)
    mem.emu_read(1, reg, got.append)
    sim.run(until=20.0)
    assert done == [None] and got == [9]
    assert mem.network.behavior.duplicated > 0
    assert reg.peek() == 9 and mem.writes_completed == 1


def test_corruption_links_mutate_values_but_not_timestamps():
    sim, mem, reg = make_memory(links="corruption", link_params={"rate": 1.0})
    done = []
    mem.emu_write(0, reg, 100, done.append)
    sim.run(until=10.0)
    assert done == [None]
    assert mem.network.behavior.corrupted > 0
    ts, value = mem.replicas[0].store["PROG"]
    assert ts == (1, 0)  # the stamp survives; only the value mutates
    assert value != 100


def test_scrambled_initial_values_seed_replicas():
    sim = Simulator()
    mem = EmulatedMemory(clock=lambda: sim.now, sim=sim, rng=RngRegistry(5))
    reg = mem.create_register("R", owner=0, initial=0)
    reg.poke(99)  # scenario scrambling happens before start()
    mem.start(horizon=1000.0)
    got = []
    mem.emu_read(1, reg, got.append)
    sim.run(until=5.0)
    assert got == [99]
