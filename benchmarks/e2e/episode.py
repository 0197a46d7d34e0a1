"""One episode: build a workload, drive its measured phase, report.

An episode is what one child interpreter runs.  Set-up ends at the
first measured event; the measured phase is driven in equal slices of
simulated time, each timed with ``perf_counter`` and paired with the
transactions it completed.  Every episode of one seed and scale repeats
the same simulated work slice for slice, so the runner can take medians
per slice across episodes.  A traced episode also runs cProfile and an
event-loop profiler over the measured phase and reports the per-layer
ledger; tracing never changes the simulated outcome, which the digest
checks.
"""

from __future__ import annotations

import cProfile
import pstats
import resource
import time
from typing import Dict, List, Optional, Tuple

from benchmarks.e2e.layers import layer_metrics
from benchmarks.e2e.workloads import Workload, make
from repro.node.reliable import ReliableThymesisFlowSystem
from repro.obs import LoopProfiler, SimObserver

__all__ = ["drive", "run_episode"]


def drive(workload: Workload, sliced: bool = True) -> List[Tuple[float, int]]:
    """Run the measured phase; ``(host_s, completed)`` per slice.

    The workload's ``finish`` step (attribution extraction, say) is timed
    as one more slice, with no completions of its own.
    """
    sim = workload.sim
    slices = []
    horizon = workload.horizon()
    k = 0
    while not workload.done():
        k += 1
        until = workload.start_ps + k * workload.slice_ps if sliced else horizon
        if horizon is not None:
            until = min(until, horizon)
        before = workload.completed()
        t0 = time.perf_counter()
        sim.run(until=until)
        slices.append((time.perf_counter() - t0, workload.completed() - before))
    t0 = time.perf_counter()
    workload.finish()
    slices.append((time.perf_counter() - t0, 0))
    return slices


def _sim_counters(workload: Workload, txns: int, events: int, loop: LoopProfiler) -> Dict[str, float]:
    """Simulated per-layer counters, read from public state after the run."""
    system = workload.system
    now = workload.sim.now
    counters = workload.counters()
    retx = counters["retransmissions"]
    sent = timeouts = 0
    if isinstance(system, ReliableThymesisFlowSystem):
        sent, timeouts = system.transport.stats.sent, system.transport.stats.timeouts
    arrivals = workload.arrivals
    waits = system.injector.waits
    return {
        "sim.core.events_per_txn": events / txns,
        "sim.core.heap_depth_mean": loop.mean_heap_depth,
        "sim.resources.window_util": system.borrower.window.utilization(),
        "core.delay.wait_ns_mean": waits.mean() / 1e3 if len(waits) else 0.0,
        "net.fwd_util": system.link.forward.utilization(now),
        "net.rev_util": system.link.reverse.utilization(now),
        "mem.bus_util": system.lender.dram.bus.utilization(now),
        "nic.retx_per_txn": retx / txns,
        "nic.timeouts_per_txn": timeouts / txns,
        "nic.useful_frac": sent / (sent + retx) if sent + retx else 1.0,
        "core.overload.failfast_frac": counters["failfasts"] / arrivals if arrivals else 0.0,
        "core.overload.shed_count": counters["sheds"],
        "core.overload.breaker_trips": counters["trips"],
    }


def run_episode(
    name: str,
    seed: int,
    scale: float,
    trace: bool = False,
    sliced: bool = True,
    t0: Optional[float] = None,
) -> dict:
    """Run one episode in this process and return its report.

    ``t0`` is the ``time.monotonic()`` reading taken before this
    interpreter was started, so ``setup_s`` covers interpreter start and
    imports; without it set-up is timed from the workload build.
    """
    if t0 is None:
        t0 = time.monotonic()
    workload = make(name, seed, scale)
    workload.build()
    sim = workload.sim
    loop = profile = None
    if trace:
        loop = LoopProfiler()
        sim.set_observer(SimObserver(loop, workload.timeline))
        profile = cProfile.Profile()
    events0 = sim.events_processed
    setup_s = time.monotonic() - t0
    if profile is not None:
        profile.enable()
    start = time.perf_counter()
    slices = drive(workload, sliced)
    measured_s = time.perf_counter() - start
    if profile is not None:
        profile.disable()
    txns = workload.completed()
    events = sim.events_processed - events0
    report = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "trace": trace,
        "setup_s": setup_s,
        "measured_s": measured_s,
        "txns": txns,
        "events": events,
        "slices": slices,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": workload.digest(),
        "anchors": workload.anchors(),
        "facts": workload.facts(),
    }
    if trace:
        ledger = layer_metrics(pstats.Stats(profile), measured_s, txns)
        ledger.update(_sim_counters(workload, txns, events, loop))
        report["layers"] = ledger
    return report
