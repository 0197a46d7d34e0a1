"""Ablation: memory pooling vs borrowing (§V discussion), on the DES.

N borrowers either borrow from N distinct lender nodes (each pair with
its own link and a fast lender bus) or share one CPU-less memory pool
whose controller bandwidth is a small multiple of one link.  Both arms
drive the same STREAM program.  The bottleneck shift the paper predicts
appears as per-borrower bandwidth collapse past the pool's capacity.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.calibration import paper_cluster_config
from repro.engine import run_concurrent
from repro.engine.des import DesPhaseDriver, InstanceResult
from repro.engine.phases import Location, PhaseProgram
from repro.experiments.base import ExperimentResult
from repro.node.cluster import ThymesisFlowSystem
from repro.node.pool import MemoryPoolFabric, PoolConfig
from repro.workloads.stream import StreamConfig, StreamWorkload

__all__ = ["run", "run_stream_on_pool"]

DEFAULT_COUNTS = (1, 2, 4)
POOL_GBS = 25.0


def _stream_program(lines: int) -> PhaseProgram:
    """STREAM sized to move about *lines* remote cache lines."""
    return StreamWorkload(StreamConfig(n_elements=lines * 16 // 6)).program(Location.REMOTE)


def run_stream_on_pool(fabric: MemoryPoolFabric, lines: int) -> List[InstanceResult]:
    """Drive STREAM from every pooled borrower at once, on the shared simulator."""
    program = _stream_program(lines)
    drivers = [
        DesPhaseDriver(system, program, instance=f"b{i}", instance_index=i)
        for i, system in enumerate(fabric.systems)
    ]
    procs = [driver.start() for driver in drivers]
    fabric.sim.run()
    for proc in procs:
        if not proc.ok:
            _ = proc.value  # re-raise stored failure
    return [driver.result for driver in drivers]


def _borrowing_per_borrower_gbs(lines: int) -> float:
    """Each borrower has its own pair: one representative suffices."""
    system = ThymesisFlowSystem(paper_cluster_config(period=1))
    system.attach_or_raise()
    results = run_concurrent(system, [_stream_program(lines)])
    return results[0].bandwidth_bytes_per_s / 1e9


def _pooled_per_borrower_gbs(n: int, lines: int) -> float:
    fabric = MemoryPoolFabric(
        n,
        pool=PoolConfig(bandwidth_bytes_per_s=POOL_GBS * 1e9),
        cluster=paper_cluster_config(period=1),
    )
    results = run_stream_on_pool(fabric, lines)
    return sum(r.bandwidth_bytes_per_s for r in results) / (n * 1e9)


def run(counts: Sequence[int] = DEFAULT_COUNTS, lines: int = 3000) -> ExperimentResult:
    """Per-borrower bandwidth, borrowing vs a shared 25 GB/s pool."""
    borrowing = _borrowing_per_borrower_gbs(lines)
    rows = []
    pooled = {}
    for n in counts:
        pooled[n] = _pooled_per_borrower_gbs(n, lines)
        rows.append((n, round(borrowing, 3), round(pooled[n], 3)))
    first, last = counts[0], counts[-1]
    checks = {
        "single borrower: pool ~= borrowing (link-bound)": abs(
            pooled[first] - borrowing
        )
        / borrowing
        < 0.05,
        "pool saturates: per-borrower bandwidth collapses": pooled[last]
        < 0.75 * pooled[first],
        "collapse tracks pool capacity / n": abs(
            pooled[last] - POOL_GBS / last
        )
        / (POOL_GBS / last)
        < 0.25,
    }
    return ExperimentResult(
        experiment="ablation-pooling",
        title=f"Borrowing vs pooling ({POOL_GBS:.0f} GB/s pool), per-borrower GB/s",
        columns=("n_borrowers", "borrowing_GB_s", "pooling_GB_s"),
        rows=rows,
        checks=checks,
        notes=(
            "Under borrowing each pair's lender bus dwarfs its link, so scale "
            "is free; a pool's controller becomes the shared bottleneck — the "
            "paper's section V caveat to its own MCLN conclusion."
        ),
    )
