#!/usr/bin/env python3
"""Beyond-rack what-if study: switched fabric, incast, failures.

The paper characterizes a two-node prototype and *extrapolates* to a
datacenter deployment; this example runs that extrapolation on the
simulator's beyond-rack substrates:

1. four borrower-lender pairs through a shared switch — distinct
   lenders (no contention) vs incast onto one popular lender;
2. a link blackout sweep — the survive/crash boundary the paper's
   resilience discussion anticipates.

Run:  python examples/beyond_rack_study.py
"""

from repro.analysis.report import render_table
from repro.calibration import paper_cluster_config
from repro.core.resilience import blackout_survival_sweep
from repro.engine import DesPhaseDriver, Location
from repro.node.multipair import BeyondRackDeployment
from repro.units import MS, milliseconds
from repro.workloads.stream import StreamConfig, StreamWorkload


def fabric_study() -> None:
    rows = []
    for label, assignment in (("distinct lenders", None), ("incast -> l0", [0, 0, 0, 0])):
        deployment = BeyondRackDeployment(
            4, lender_assignment=assignment, cluster=paper_cluster_config()
        )
        deployment.attach_all()
        drivers = [
            DesPhaseDriver(
                pair,
                StreamWorkload(StreamConfig(n_elements=6000)).program(Location.REMOTE),
                instance=f"pair{i}",
            )
            for i, pair in enumerate(deployment.pairs)
        ]
        for d in drivers:
            d.start()
        deployment.sim.run()
        bws = [d.result.bandwidth_bytes_per_s / 1e9 for d in drivers]
        rows.append((label, round(sum(bws), 2), round(min(bws), 2), round(max(bws), 2)))
    print(render_table(
        "Four pairs through one switch (STREAM, GB/s)",
        ("scenario", "aggregate", "min_pair", "max_pair"),
        rows,
    ))
    print()


def failure_study() -> None:
    sweep = blackout_survival_sweep(
        durations=(milliseconds(1), milliseconds(10), milliseconds(30), milliseconds(64)),
        config=paper_cluster_config(),
        stall_tolerance=milliseconds(32),
    )
    rows = [
        (
            round(r["blackout_ps"] / MS, 1),
            "survived" if r["survived"] else "HOST CRASH",
            round(r["duration_ps"] / MS, 2) if r["survived"] else "-",
        )
        for r in sweep
    ]
    print(render_table(
        "Link blackout sweep (32 ms stall tolerance)",
        ("blackout_ms", "outcome", "JCT_ms"),
        rows,
    ))
    print()


def main() -> None:
    fabric_study()
    failure_study()


if __name__ == "__main__":
    main()
