"""Figure 3: STREAM-measured bandwidth versus PERIOD, and BDP constancy.

Paper observations reproduced and checked:
* consumed bandwidth decreases rapidly with added delay,
* the bandwidth-delay product stays roughly constant (~16.5 kB in the
  paper; ``window x line = 16384 B`` in the calibrated model).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.calibration import BDP_BYTES
from repro.core.characterization import validation_sweep
from repro.experiments.base import ExperimentResult
from repro.units import US
from repro.workloads.stream import StreamConfig

__all__ = ["run"]

DEFAULT_PERIODS: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 384)

#: Reduced sweep for ``--quick`` (keeps the >10x bandwidth collapse).
QUICK_PERIODS: tuple[int, ...] = (1, 4, 32, 128, 384)


def run(
    mode: str = "des",
    periods: Sequence[int] | None = None,
    stream: StreamConfig | None = None,
    quick: bool = False,
    obs=None,
    workers: int = 1,
    cache=None,
) -> ExperimentResult:
    """Regenerate the Figure 3 series (``quick`` shrinks the sweep)."""
    if periods is None:
        periods = QUICK_PERIODS if quick else DEFAULT_PERIODS
    if stream is None and quick:
        stream = StreamConfig(n_elements=4_000)
    sweep = validation_sweep(
        periods=periods,
        mode=mode,
        stream=stream,
        obs=obs,
        workers=workers,
        cache=cache,
    )
    bw = sweep.bandwidths
    mean_bdp, deviation = sweep.bdp()
    rows = [
        (
            p.period,
            round(p.bandwidth_bytes_per_s / 1e9, 4),
            round(p.bdp_bytes / 1024, 2),
        )
        for p in sweep.points
    ]
    checks = {
        "bandwidth monotone non-increasing in PERIOD": bool(np.all(np.diff(bw) <= 1e-9)),
        "bandwidth collapses by >10x across the sweep": bw.max() / max(bw.min(), 1.0) > 10,
        "BDP constant within 20% in the gate-bound regime": deviation < 0.20,
        "mean BDP within 25% of window*line (16384 B)": abs(mean_bdp - BDP_BYTES) / BDP_BYTES
        < 0.25,
    }
    return ExperimentResult(
        experiment="fig3",
        title="STREAM bandwidth vs delay injection (engine=%s)" % sweep.mode,
        columns=("PERIOD", "bandwidth_GB_s", "BDP_KiB"),
        rows=rows,
        checks=checks,
        notes=(
            f"mean BDP {mean_bdp:.0f} B (paper ~16.5 kB; model W*line={BDP_BYTES} B), "
            f"max deviation {deviation * 100:.1f}% over the gate-bound points; "
            f"latency range {sweep.latencies_ps.min() / US:.2f}-"
            f"{sweep.latencies_ps.max() / US:.1f} us."
        ),
    )
