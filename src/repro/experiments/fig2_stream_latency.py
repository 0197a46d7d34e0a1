"""Figure 2: STREAM-measured latency versus delay-injection PERIOD.

Paper observations reproduced and checked:
* latency grows linearly with PERIOD (strong Pearson correlation),
* the sweep spans roughly 1.2 us (vanilla) to >100 us, covering the
  [0-90th]-percentile band of production datacenter latency.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.characterization import validation_sweep
from repro.experiments.base import ExperimentResult
from repro.net.latency import named_profile
from repro.units import US
from repro.workloads.stream import StreamConfig

__all__ = ["run"]

DEFAULT_PERIODS: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 384)

#: Reduced sweep for ``--quick``: still spans ~1 us to >100 us so the
#: paper's shape checks hold, at a fraction of the transactions.
QUICK_PERIODS: tuple[int, ...] = (1, 4, 32, 128, 384)

QUICK_STREAM_ELEMENTS = 4_000


def run(
    mode: str = "des",
    periods: Sequence[int] | None = None,
    stream: StreamConfig | None = None,
    quick: bool = False,
    obs=None,
    workers: int = 1,
    cache=None,
) -> ExperimentResult:
    """Regenerate the Figure 2 series.

    ``quick`` shrinks the PERIOD grid and STREAM footprint; *obs* is an
    optional :class:`repro.obs.Observability` bundle threaded through
    the DES testbed (one traced run per PERIOD point).  ``workers`` and
    ``cache`` ride through to the sweep executor (parallel fan-out and
    the content-addressed result cache).
    """
    if periods is None:
        periods = QUICK_PERIODS if quick else DEFAULT_PERIODS
    if stream is None and quick:
        stream = StreamConfig(n_elements=QUICK_STREAM_ELEMENTS)
    sweep = validation_sweep(
        periods=periods,
        mode=mode,
        stream=stream,
        obs=obs,
        workers=workers,
        cache=cache,
    )
    lat_us = sweep.latencies_ps / US
    profile = named_profile("pingmesh_intra_dc")
    lo_pct, hi_pct = profile.coverage_of_range(
        float(sweep.latencies_ps.min()), float(sweep.latencies_ps.max())
    )
    rows = [
        (p.period, round(p.latency_ps / US, 3)) for p in sweep.points
    ]
    correlation = sweep.latency_correlation()
    checks = {
        "latency monotone non-decreasing in PERIOD": bool(np.all(np.diff(lat_us) >= -1e-9)),
        "PERIOD-latency Pearson r > 0.99": correlation > 0.99,
        "sweep spans ~1us to >100us": lat_us.min() < 2.0 and lat_us.max() > 100.0,
        "range covers a wide datacenter-latency percentile band": hi_pct - lo_pct > 50.0,
    }
    return ExperimentResult(
        experiment="fig2",
        title="STREAM latency vs delay injection (engine=%s)" % sweep.mode,
        columns=("PERIOD", "latency_us"),
        rows=rows,
        checks=checks,
        notes=(
            f"Pearson r={correlation:.4f}; measured range covers the "
            f"[{lo_pct:.0f}-{hi_pct:.0f}th] percentile of the Pingmesh-like "
            f"intra-DC latency profile (paper: [0-90th])."
        ),
    )
