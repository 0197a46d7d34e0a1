"""Microbenchmarks of the simulator's own hot paths.

Unlike the figure benches (run-once experiment regenerations), these
measure the engine's throughput with real pytest-benchmark statistics,
guarding against performance regressions in the DES kernel, the
injector gate, the cache model, and the BFS kernel.
"""

import numpy as np

from repro.axi import SlotGate
from repro.calibration import paper_cluster_config
from repro.config import CacheConfig
from repro.engine import AccessPhase, DesPhaseDriver, PhaseProgram
from repro.mem.cache import SetAssociativeCache
from repro.node.cluster import ThymesisFlowSystem
from repro.sim import Simulator, Timeout
from repro.workloads.graph500 import build_csr, kronecker_edges
from repro.workloads.graph500.bfs import bfs


#: Committed throughput floor (events/s) of the event kernel.  A
#: regression tripwire, not a target: set well below the rate a cold
#: CI runner measures, so machine noise cannot flake the bench, while
#: an accidental complexity regression in the kernel still trips it.
KERNEL_FLOOR_EVENTS_PER_S = 150_000


def test_microbench_event_kernel(benchmark):
    """Raw event scheduling/dispatch rate of the DES kernel.

    Two sleeping processes: one on short timeouts, one on timeouts far
    beyond the other's horizon, so the heap holds a mix of near and far
    entries.
    """

    def run():
        sim = Simulator()

        def near():
            for _ in range(8_000):
                yield Timeout(sim, 1)

        def far():
            for _ in range(2_000):
                yield Timeout(sim, 3_000_000)

        sim.process(near())
        sim.process(far())
        sim.run()
        return sim.events_processed

    events = benchmark(run)
    assert events >= 10_000
    benchmark.extra_info["events_per_iteration"] = events
    floor = KERNEL_FLOOR_EVENTS_PER_S
    benchmark.extra_info["floor_events_per_s"] = floor
    stats = getattr(benchmark.stats, "stats", benchmark.stats)
    rate = events / stats.mean
    assert rate >= floor, f"event kernel regressed: {rate:,.0f} events/s < floor {floor:,}"


def test_microbench_slot_gate(benchmark):
    """Reservation arithmetic of the injector gate (O(1) per txn)."""
    gate = SlotGate(interval=3125)

    def run():
        t = 0
        for _ in range(10_000):
            t = gate.reserve(t)
        return t

    benchmark(run)


def test_microbench_remote_transactions(benchmark):
    """End-to-end DES remote transactions per second."""

    def run():
        system = ThymesisFlowSystem(paper_cluster_config(period=4))
        system.attach_or_raise()
        program = PhaseProgram("w").add(
            AccessPhase("p", n_lines=5000, concurrency=128, write_fraction=0.5)
        )
        return DesPhaseDriver(system, program).run_to_completion().lines

    lines = benchmark(run)
    assert lines == 5000


def test_microbench_cache_trace(benchmark):
    """Trace-driven cache simulation rate."""
    cache = SetAssociativeCache(CacheConfig(size_bytes=64 * 1024, associativity=8))
    rng = np.random.default_rng(0)
    addrs = rng.integers(0, 1 << 24, size=20_000, dtype=np.int64)

    def run():
        return cache.access_trace(addrs)

    hits = benchmark(run)
    assert hits.shape == addrs.shape


def test_microbench_bfs(benchmark):
    """Vectorized BFS traversal rate on a scale-12 Kronecker graph."""
    rng = np.random.default_rng(1)
    edges = kronecker_edges(12, 16, rng)
    graph = build_csr(edges, 1 << 12)
    degrees = np.diff(graph.xadj)
    root = int(np.argmax(degrees))

    def run():
        return bfs(graph, root).edges_traversed

    edges_traversed = benchmark(run)
    assert edges_traversed > 0
