"""The injector-validation sweep (paper section IV-B).

Runs STREAM on the borrower (lender idle) across a PERIOD sweep and
collects the three quantities of Figures 2 and 3: STREAM-measured
latency, STREAM-measured bandwidth, and their product (the BDP, whose
constancy validates the closed-window model).

Both engines are supported; ``mode="des"`` executes every transaction
through the event-driven testbed, ``mode="fluid"`` evaluates the
closed forms (vectorized) — the test suite pins their agreement.

The PERIOD points are independent simulations, so the sweep rides the
:mod:`repro.perf` executor: ``workers=N`` fans them out over a process
pool (bit-identical to the inline run — each point's seed derives from
``(seed, point key)``) and ``cache=`` serves previously computed
points straight from the content-addressed result cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Literal, Optional, Sequence

import numpy as np

from repro.analysis.stats import bdp_constancy, linear_correlation
from repro.calibration import paper_cluster_config
from repro.engine.des import DesPhaseDriver
from repro.engine.fluid import FluidEngine
from repro.engine.phases import Location
from repro.errors import ExperimentError
from repro.node.cluster import ThymesisFlowSystem
from repro.perf import PointTask, ResultCache, SweepExecutor, derive_point_seed
from repro.workloads.stream import StreamConfig, StreamWorkload

__all__ = ["SweepPoint", "SweepResult", "validation_sweep"]

Mode = Literal["des", "fluid"]


@dataclass(frozen=True)
class SweepPoint:
    """One operating point of the validation sweep."""

    period: int
    latency_ps: float
    bandwidth_bytes_per_s: float

    @property
    def bdp_bytes(self) -> float:
        """Bandwidth-delay product at this point."""
        return self.bandwidth_bytes_per_s * self.latency_ps / 1e12


@dataclass
class SweepResult:
    """Full validation sweep (Figures 2 and 3 data)."""

    mode: str
    points: List[SweepPoint]

    @property
    def periods(self) -> np.ndarray:
        """PERIOD values swept."""
        return np.asarray([p.period for p in self.points])

    @property
    def latencies_ps(self) -> np.ndarray:
        """STREAM-measured latency per point."""
        return np.asarray([p.latency_ps for p in self.points])

    @property
    def bandwidths(self) -> np.ndarray:
        """STREAM-measured bandwidth per point."""
        return np.asarray([p.bandwidth_bytes_per_s for p in self.points])

    def latency_correlation(self) -> float:
        """Pearson r between PERIOD and latency (section III-B claim)."""
        return linear_correlation(self.periods, self.latencies_ps)

    def bdp(self) -> tuple[float, float]:
        """(mean BDP bytes, max relative deviation) across the sweep.

        Deviation is computed over the gate-bound regime (points whose
        latency clearly exceeds the unloaded baseline), matching how
        the paper reads Figure 3.
        """
        lat = self.latencies_ps
        bw = self.bandwidths
        saturated = lat >= 1.5 * lat.min() if len(lat) > 1 else np.ones_like(lat, bool)
        if saturated.sum() < 2:
            saturated = np.ones_like(lat, dtype=bool)
        return bdp_constancy(bw[saturated], lat[saturated])


def _validation_point(
    period: int,
    mode: str,
    stream: StreamConfig,
    seed: int,
    obs=None,
) -> dict:
    """Compute one PERIOD point; module-level so worker processes can run it.

    Returns plain JSON data (the executor's contract) rather than a
    :class:`SweepPoint` so results round-trip through the result cache.
    """
    workload = StreamWorkload(stream)
    config = paper_cluster_config(period=period, seed=seed)
    if mode == "des":
        system = ThymesisFlowSystem(config, obs=obs)
        system.attach_or_raise()
        driver = DesPhaseDriver(system, workload.program(Location.REMOTE))
        result = driver.run_to_completion()
        if obs is not None:
            obs.finish_system(system)
        latency = result.mean_latency_ps
        bandwidth = result.bandwidth_bytes_per_s
    elif mode == "fluid":
        run = FluidEngine(config).run(workload.program(Location.REMOTE))
        latency = run.mean_sojourn_ps
        bandwidth = run.bandwidth_bytes_per_s
    else:  # pragma: no cover - literal type guards this
        raise ExperimentError(f"unknown mode {mode!r}")
    return {"period": period, "latency_ps": latency, "bandwidth_bytes_per_s": bandwidth}


def validation_sweep(
    periods: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 384),
    mode: Mode = "fluid",
    stream: StreamConfig | None = None,
    seed: int = 1234,
    obs=None,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
) -> SweepResult:
    """Run the section IV-B sweep; returns per-PERIOD latency/bandwidth.

    STREAM "latency" is the mean transaction sojourn (what a
    load-latency probe reports) and "bandwidth" is payload bytes moved
    over elapsed time, both as in the paper's Figures 2/3.

    *obs* is an optional :class:`repro.obs.Observability` bundle; each
    PERIOD point becomes one traced run (its own process track) in DES
    mode.  The fluid engine evaluates closed forms without simulating
    transactions, so it produces no spans.  Tracing forces inline,
    uncached execution: spans cannot cross process boundaries and a
    cache hit would silently skip span generation.

    *workers* fans the PERIOD points over a process pool; *cache*
    serves previously computed points from the content-addressed
    result cache.  Either way the rows are bit-identical to a plain
    serial run.
    """
    if not periods:
        raise ExperimentError("validation_sweep requires at least one PERIOD")
    stream_cfg = stream or StreamConfig(n_elements=20_000)
    if obs is not None:
        rows = [
            _validation_point(period, mode, stream_cfg, seed, obs=obs)
            for period in periods
        ]
    else:
        tasks = [
            PointTask(
                key=(key := f"validation/mode={mode}/period={period}"),
                fn=_validation_point,
                kwargs={
                    "period": period,
                    "mode": mode,
                    "stream": stream_cfg,
                    "seed": derive_point_seed(seed, key),
                },
            )
            for period in periods
        ]
        rows = SweepExecutor(workers=workers, cache=cache).map(tasks)
    points = [
        SweepPoint(
            period=row["period"],
            latency_ps=row["latency_ps"],
            bandwidth_bytes_per_s=row["bandwidth_bytes_per_s"],
        )
        for row in rows
    ]
    return SweepResult(mode=mode, points=points)
