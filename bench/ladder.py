"""The peel ladder: each layer's public API timed alone.

One driver per rung, bottom up: bare kernel chains, the netsim fabric,
direct registers, the ABD emulation with no ``ProcessRuntime`` above it,
then the two generators the search loops lean on.  Every rung repeats a
fixed batch of work until ``rung_s`` host seconds are spent (at least
three batches) and reports the median batch rate, so a rung's number is
comparable across commits and its cost is bounded.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Any, Callable, Dict, Tuple

#: Events (or operations) per timed batch: large enough that a batch is
#: tens of milliseconds, small enough that three fit in any rung.
BATCH = 20_000


def _median_rate(rung_s: float, batch: Callable[[], Tuple[float, float]]) -> float:
    """Median of ``work / seconds`` over repeated ``batch()`` calls."""
    rates = []
    started = time.perf_counter()
    while len(rates) < 3 or time.perf_counter() - started < rung_s:
        work, seconds = batch()
        rates.append(work / seconds)
    return statistics.median(rates)


def _timed_run(sim: Any, max_events: int) -> float:
    started = time.perf_counter()
    sim.run(max_events=max_events)
    return time.perf_counter() - started


# ----------------------------------------------------------------------
def _chains(rung_s: float, chains: int, aligned: bool, lane: bool) -> float:
    from repro.sim.events import EventLane
    from repro.sim.kernel import Simulator

    def batch() -> Tuple[float, float]:
        sim = Simulator(trace_events=False)
        event_lane = EventLane("bench-lane", None) if lane else None  # payload is the callback

        def make(chain: int) -> Callable[[], None]:
            if event_lane is not None:
                def cb() -> None:
                    sim.schedule_lane_after(event_lane, 1.0, cb, pid=chain)
            else:
                def cb() -> None:
                    sim.schedule_after(1.0, cb, kind="bench", pid=chain)
            return cb

        for chain in range(chains):
            start = 1.0 if aligned else chain / chains
            sim.schedule_at(start, make(chain), kind="bench", pid=chain)
        return BATCH, _timed_run(sim, BATCH)

    return _median_rate(rung_s, batch)


def _ring(rung_s: float, seed: int, rng_links: bool) -> float:
    from repro.netsim.network import Network, SynchronousLinks, TimelyLinks
    from repro.sim.kernel import Simulator
    from repro.sim.rng import RngRegistry

    nodes = 8

    def batch() -> Tuple[float, float]:
        sim = Simulator(trace_events=False)
        links = TimelyLinks(RngRegistry(seed)) if rng_links else SynchronousLinks(0.25)
        network = Network(sim, links)
        network.install_delivery(
            lambda message: network.send(message.receiver, (message.receiver + 1) % nodes, "ring", None)
        )
        for node in range(nodes):
            network.send(node, (node + 1) % nodes, "ring", None)
        seconds = _timed_run(sim, BATCH)
        return network.delivered, seconds

    return _median_rate(rung_s, batch)


def _shared_ops(rung_s: float) -> float:
    from repro.memory.memory import SharedMemory

    memory = SharedMemory(clock=lambda: 0.0, log_reads=False)
    registers = [memory.create_register(f"R{pid}", owner=pid) for pid in range(8)]

    def batch() -> Tuple[float, float]:
        started = time.perf_counter()
        for op in range(BATCH):
            pid = op & 7
            if op % 5:
                registers[(pid + 1) & 7].read(pid)
            else:
                registers[pid].write(pid, op)
        return BATCH, time.perf_counter() - started

    return _median_rate(rung_s, batch)


def _emulated(rung_s: float, seed: int, replicas: int, consistency: str) -> Tuple[float, float]:
    """(ops/s, msgs/op) of 8 closed-loop clients on a bare emulation."""
    from repro.memory.emulated import EmulatedMemory, EmulationConfig
    from repro.sim.kernel import Simulator
    from repro.sim.rng import RngRegistry

    clients = 8
    msgs_per_op = 0.0

    def batch() -> Tuple[float, float]:
        nonlocal msgs_per_op
        sim = Simulator(trace_events=False)
        config = EmulationConfig.from_dict(
            {"replicas": replicas, "links": "sync", "link_params": {"delta": 0.25}, "consistency": consistency}
        )
        memory = EmulatedMemory(lambda: sim.now, sim, RngRegistry(seed), config, log_reads=False)
        registers = [memory.create_register(f"R{pid}", owner=pid) for pid in range(clients)]
        memory.start(float("inf"))
        issued = [0] * clients

        def issue(pid: int) -> None:
            issued[pid] += 1
            if issued[pid] % 5:
                memory.emu_read(pid, registers[(pid + 1) % clients], lambda value: issue(pid))
            else:
                memory.emu_write(pid, registers[pid], issued[pid], lambda value: issue(pid))

        for pid in range(clients):
            issue(pid)
        seconds = _timed_run(sim, BATCH)
        ops = memory.reads_completed + memory.writes_completed
        msgs_per_op = memory.network.total_sent / ops
        return ops, seconds

    return _median_rate(rung_s, batch), msgs_per_op


def _mutations(rung_s: float, seed: int) -> float:
    from repro.fuzz.genome import ScenarioGenome
    from repro.fuzz.mutate import mutate

    rng = random.Random(seed)
    count = 500

    def batch() -> Tuple[float, float]:
        genome = ScenarioGenome()
        started = time.perf_counter()
        for _ in range(count):
            genome = mutate(genome, rng)
        return count, time.perf_counter() - started

    return _median_rate(rung_s, batch)


def _fault_plans(rung_s: float, seed: int) -> float:
    from repro.faults.generator import FaultScheduleGenerator

    generator = FaultScheduleGenerator(seed)
    count = 500

    def batch() -> Tuple[float, float]:
        started = time.perf_counter()
        for index in range(count):
            generator.generate(index)
        return count, time.perf_counter() - started

    return _median_rate(rung_s, batch)


# ----------------------------------------------------------------------
def run(rung_s: float, seed: int) -> Dict[str, float]:
    """Climb the ladder; every ``*_per_s`` is a median host rate."""
    regular, regular_msgs = _emulated(rung_s, seed, 3, "regular")
    atomic, atomic_msgs = _emulated(rung_s, seed, 3, "atomic")
    regular_r7, _ = _emulated(rung_s, seed, 7, "regular")
    return {
        "sim.chain_events_per_s": _chains(rung_s, 4, aligned=False, lane=False),
        "sim.batched_events_per_s": _chains(rung_s, 32, aligned=True, lane=False),
        "sim.lane_events_per_s": _chains(rung_s, 4, aligned=False, lane=True),
        "netsim.ring_msgs_per_s": _ring(rung_s, seed, rng_links=False),
        "netsim.ring_rng_msgs_per_s": _ring(rung_s, seed, rng_links=True),
        "memory.shared_ops_per_s": _shared_ops(rung_s),
        "memory.emu_regular_ops_per_s": regular,
        "memory.emu_atomic_ops_per_s": atomic,
        "memory.emu_regular_r7_ops_per_s": regular_r7,
        "memory.emu_regular_msgs_per_op": regular_msgs,
        "memory.emu_atomic_msgs_per_op": atomic_msgs,
        "fuzz.mutate_per_s": _mutations(rung_s, seed),
        "faults.generate_per_s": _fault_plans(rung_s, seed),
    }
