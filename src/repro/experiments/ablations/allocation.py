"""Ablation: contention-aware vs naive lender selection (§IV-E insight).

The paper's insight: "a lender node with multiple running applications
and an idle lender node can be equally viable candidates for remote
memory reservation".  Two axes test it:

* placement capacity — how many 16 GB reservations each control-plane
  policy satisfies against a mixed fleet before the pool is exhausted
  (a load-averse policy must not strand capacity);
* delivered performance — borrower STREAM bandwidth from an idle vs a
  busy lender on the DES testbed (per the paper: indistinguishable, so
  avoiding busy lenders buys nothing).
"""

from __future__ import annotations

from dataclasses import replace

from repro.calibration import paper_cluster_config
from repro.control import (
    ContentionAwarePolicy,
    ControlPlane,
    LeastLoadedPolicy,
    NodeInventory,
)
from repro.engine import Location, run_concurrent
from repro.errors import AllocationError
from repro.experiments.base import ExperimentResult
from repro.node.cluster import ThymesisFlowSystem
from repro.workloads.stream import StreamConfig, StreamWorkload

__all__ = ["run"]

GB = 1 << 30
RESERVATION_BYTES = 16 * GB
#: STREAM tenants hammering the busy lender's local memory bus.
BUSY_TENANTS = 8
#: Borrower STREAM size; each busy-lender tenant runs twice as many.
N_ELEMENTS = 8000


def _fleet():
    """Four lenders: two busy with lots of slack, two idle with little."""
    return [
        NodeInventory("busy-0", total_bytes=96 * GB, running_apps=12),
        NodeInventory("busy-1", total_bytes=96 * GB, running_apps=9),
        NodeInventory("idle-0", total_bytes=96 * GB, used_bytes=72 * GB),
        NodeInventory("idle-1", total_bytes=96 * GB, used_bytes=72 * GB),
    ]


def _placement_capacity(policy) -> int:
    """Reservations satisfied before the pool is exhausted."""
    plane = ControlPlane(policy=policy)
    plane.register(NodeInventory("borrower", total_bytes=64 * GB, demand_bytes=1 << 50))
    for lender in _fleet():
        plane.register(lender)
    placed = 0
    while True:
        try:
            plane.reserve("borrower", RESERVATION_BYTES)
        except AllocationError:
            return placed
        placed += 1


def _borrower_gbs(lender_busy: bool) -> float:
    """DES: borrower STREAM bandwidth with an idle or a busy lender."""
    system = ThymesisFlowSystem(paper_cluster_config(period=1))
    system.attach_or_raise()
    stream = StreamConfig(n_elements=N_ELEMENTS)
    programs = [StreamWorkload(stream).program(Location.REMOTE)]
    if lender_busy:
        local = replace(stream, n_elements=2 * N_ELEMENTS, concurrency=10)
        programs += [
            StreamWorkload(local).program(Location.LENDER_LOCAL)
            for _ in range(BUSY_TENANTS)
        ]
    return run_concurrent(system, programs)[0].bandwidth_bytes_per_s / 1e9


def run() -> ExperimentResult:
    """Placement capacity per policy; borrower bandwidth idle vs busy lender."""
    least_loaded = _placement_capacity(LeastLoadedPolicy())
    contention_aware = _placement_capacity(ContentionAwarePolicy())
    idle = _borrower_gbs(lender_busy=False)
    busy = _borrower_gbs(lender_busy=True)
    rows = [
        ("placements", "least-loaded", least_loaded),
        ("placements", "contention-aware", contention_aware),
        ("borrower_GB_s", "idle lender", round(idle, 3)),
        ("borrower_GB_s", "busy lender", round(busy, 3)),
    ]
    checks = {
        "contention-aware placement never satisfies fewer reservations": (
            contention_aware >= least_loaded
        ),
        "busy lender delivers the idle lender's bandwidth (<5%)": (
            abs(busy - idle) <= 0.05 * idle
        ),
    }
    return ExperimentResult(
        experiment="ablation-allocation",
        title=f"Lender selection: {RESERVATION_BYTES // GB} GB placements and borrower STREAM",
        columns=("measure", "arm", "value"),
        rows=rows,
        checks=checks,
        notes=(
            f"The busy lender runs {BUSY_TENANTS} local STREAM tenants; its "
            "memory bus outruns the link, so lender busyness is no placement "
            "signal — the paper's MCLN conclusion applied to allocation."
        ),
    )
