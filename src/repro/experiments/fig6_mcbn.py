"""Figure 6: memory contention at the borrower node (MCBN).

N STREAM instances run on the borrower, all using disaggregated
memory.  The paper observes "an equal division of bandwidth amongst
the competing STREAM instances as they compete for the bottleneck
network bandwidth" — here that division emerges from FIFO interleaving
at the shared window/gate/link, and is checked with Jain's fairness
index plus conservation of aggregate bandwidth.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.stats import jain_fairness
from repro.calibration import paper_cluster_config
from repro.engine.des import run_concurrent
from repro.engine.fluid import FluidEngine
from repro.engine.phases import Location
from repro.experiments.base import ExperimentResult
from repro.node.cluster import ThymesisFlowSystem
from repro.perf import PointTask, SweepExecutor
from repro.workloads.stream import StreamConfig, StreamWorkload

__all__ = ["run"]

DEFAULT_COUNTS: tuple[int, ...] = (1, 2, 4, 8, 16)
QUICK_ELEMENTS = 2_500


def _mcbn_point(n: int, period: int, stream: StreamConfig, mode: str, obs=None) -> dict:
    """Per-instance bandwidths at one contention level (worker-runnable)."""
    if mode == "des":
        config = paper_cluster_config(period=period)
        system = ThymesisFlowSystem(config, obs=obs, obs_label=f"n={n}")
        system.attach_or_raise()
        programs = [StreamWorkload(stream).program(Location.REMOTE) for _ in range(n)]
        results = run_concurrent(system, programs)
        if obs is not None:
            obs.finish_system(system)
        bws = [r.bandwidth_bytes_per_s for r in results]
    else:
        engine = FluidEngine(paper_cluster_config(period=period)).contended_remote_engines(n)
        run_result = engine.run(StreamWorkload(stream).program(Location.REMOTE))
        bws = [run_result.bandwidth_bytes_per_s] * n
    return {"bandwidths": bws}


def run(
    mode: str = "des",
    instance_counts: Sequence[int] | None = None,
    stream: StreamConfig | None = None,
    period: int = 1,
    quick: bool = False,
    obs=None,
    workers: int = 1,
    cache=None,
) -> ExperimentResult:
    """Regenerate the Figure 6 series (per-instance STREAM bandwidth).

    Contention levels are independent runs; ``workers``/``cache`` fan
    them over the :mod:`repro.perf` sweep executor.  *obs* is an
    optional :class:`repro.obs.Observability` bundle; each contention
    level becomes one traced run (spans cannot cross processes or the
    result cache, so tracing forces inline, uncached execution).
    ``quick`` shrinks the arrays to ``QUICK_ELEMENTS`` and keeps the
    instance counts.
    """
    if instance_counts is None:
        instance_counts = DEFAULT_COUNTS
    stream_cfg = stream or StreamConfig(
        n_elements=QUICK_ELEMENTS if quick else 10_000
    )
    if obs is not None:
        outputs = [
            _mcbn_point(n, period, stream_cfg, mode, obs=obs) for n in instance_counts
        ]
    else:
        tasks = [
            PointTask(
                key=f"mcbn/mode={mode}/period={period}/n={n}",
                fn=_mcbn_point,
                kwargs={"n": n, "period": period, "stream": stream_cfg, "mode": mode},
            )
            for n in instance_counts
        ]
        outputs = SweepExecutor(workers=workers, cache=cache).map(tasks)
    rows = []
    per_instance: list[float] = []
    aggregate: list[float] = []
    fairness: list[float] = []
    for n, output in zip(instance_counts, outputs):
        bws = np.asarray(output["bandwidths"])
        per_instance.append(float(bws.mean()))
        aggregate.append(float(bws.sum()))
        fairness.append(jain_fairness(bws))
        rows.append(
            (
                n,
                round(float(bws.mean()) / 1e9, 3),
                round(float(bws.sum()) / 1e9, 3),
                round(jain_fairness(bws), 4),
            )
        )
    per = np.asarray(per_instance)
    agg = np.asarray(aggregate)
    counts = np.asarray(list(instance_counts), dtype=np.float64)
    # The equal-division law is about *competing* instances: reference
    # the first contended point, and check contended points only (an
    # n=1 run is ramp-limited at small array sizes, not contended).
    contended = counts >= 2
    ref = int(np.argmax(contended)) if contended.any() else 0
    predicted = agg[ref] / counts
    checks = {
        "per-instance bandwidth ~ total/N (within 20%)": bool(
            np.all(
                np.abs(per[contended] - predicted[contended]) / predicted[contended]
                < 0.20
            )
        ),
        "bandwidth divided equally (Jain index > 0.95)": all(f > 0.95 for f in fairness),
        "aggregate bandwidth conserved (within 15%)": bool(
            np.all(np.abs(agg[contended] - agg[ref]) / agg[ref] < 0.15)
        ),
    }
    return ExperimentResult(
        experiment="fig6",
        title="Contention for bandwidth at borrower node (MCBN)",
        columns=("n_instances", "per_instance_GB_s", "aggregate_GB_s", "jain_index"),
        rows=rows,
        checks=checks,
        notes="All instances share the borrower window, injector gate and link.",
    )
