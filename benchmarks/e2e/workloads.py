"""The benchmark's five workloads.

Each workload builds a testbed through the simulator's public API,
attaches it, and starts its load without running the measured phase.
The runner then drives ``sim.run(until=...)`` in slices of simulated
time and reads back, from public state only, what the gate and the
ledger need: completed transactions, the correctness digest, the paper
anchors, and the simulated per-layer counters.  Inputs depend only on
``seed`` and ``scale``; ``scale`` multiplies each workload's fixed
transaction count.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.stats import jain_fairness
from repro.calibration import paper_cluster_config
from repro.config import FaultConfig, TransportConfig
from repro.core.delay import DelaySchedule
from repro.core.overload import OverloadConfig
from repro.engine.des import DesPhaseDriver
from repro.engine.phases import Location
from repro.errors import OverloadError
from repro.node.cluster import ThymesisFlowSystem
from repro.node.reliable import ReliableThymesisFlowSystem
from repro.obs import Observability, attribution_sidecar
from repro.sim import Timeout
from repro.units import microseconds, nanoseconds
from repro.workloads.stream import StreamConfig, StreamWorkload

__all__ = ["WORKLOADS", "Workload", "make"]

#: Slices of simulated time the measured phase is cut into.
SLICES = 200


class Workload:
    """One benchmark workload: build, then expose state to the runner."""

    name = ""
    #: One line on why the benchmark has this workload.
    why = ""
    #: Open-loop requests issued, and those that failed fast (closed
    #: loops have neither).
    arrivals = 0
    failfasts = 0

    def __init__(self, seed: int, scale: float) -> None:
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.seed = seed
        self.scale = scale
        self.system: ThymesisFlowSystem
        self.start_ps = 0
        self.slice_ps = 1
        #: Timeline sampler the workload's observability installed, kept
        #: when the traced run wraps the simulator observer.
        self.timeline = None

    @property
    def sim(self):
        return self.system.sim

    def build(self) -> None:
        """Build, attach and start the load; sets ``start_ps``/``slice_ps``."""
        raise NotImplementedError

    def done(self) -> bool:
        """True once the measured phase has nothing left to simulate."""
        raise NotImplementedError

    def horizon(self) -> Optional[int]:
        """``until`` for an unsliced run (None: run to exhaustion)."""
        return None

    def finish(self) -> None:
        """Post-run work that belongs to the measured phase."""

    def completed(self) -> int:
        """Remote transactions completed so far (handshake excluded)."""
        return int(self.system.stats.counters.get("remote.transactions", 0))

    def latencies(self) -> np.ndarray:
        """Per-transaction sojourn in ps, in completion order."""
        return self.system.stats.get_series("remote.latency_ps").values.astype(np.int64)

    def end_ps(self) -> int:
        """Simulated time of the last completion."""
        raise NotImplementedError

    def counters(self) -> Dict[str, int]:
        """Workload outcome counters covered by the digest."""
        system = self.system
        retx = sheds = trips = 0
        if isinstance(system, ReliableThymesisFlowSystem):
            retx = system.transport.stats.retransmissions
            sheds = sum(system.overload.shed_by_class.values())
            if system.overload.breaker is not None:
                trips = system.overload.breaker.trips
        sheds += system.lender.dram.bus.sheds
        return {
            "retransmissions": int(retx),
            "failfasts": self.failfasts,
            "sheds": int(sheds),
            "trips": int(trips),
        }

    def digest(self) -> dict:
        """Exact fingerprint of the simulated outcome."""
        lat = np.ascontiguousarray(self.latencies(), dtype="<i8")
        return {
            "end_ps": int(self.end_ps()),
            "txns": self.completed(),
            "latency_sha256": hashlib.sha256(lat.tobytes()).hexdigest(),
            "counters": self.counters(),
        }

    def anchors(self) -> Dict[str, bool]:
        """Paper anchors this workload must reproduce."""
        return {}

    def facts(self) -> Dict[str, int]:
        """Workload-specific facts recorded in the run manifest."""
        return {}


class _Stream(Workload):
    """Closed loop: STREAM instances, 128 workers each, on one testbed."""

    period = 4
    instances = 1
    #: Cache lines per STREAM array at scale 1 (10 transactions each).
    lines_per_array = 25_000
    footprint_lines = 1 << 16
    #: Simulated ps per transaction at scale 1 (measured, rounded down);
    #: sizes the slices only.
    ps_per_txn = 12_500

    def make_system(self, config) -> ThymesisFlowSystem:
        return ThymesisFlowSystem(config)

    def arm(self) -> None:
        """Hook run after the attach handshake, before the load starts."""

    def build(self) -> None:
        config = paper_cluster_config(period=self.period, seed=self.seed)
        self.system = self.make_system(config)
        self.system.attach_or_raise()
        self.arm()
        lines = max(1, round(self.lines_per_array * self.scale))
        stream = StreamConfig(n_elements=lines * StreamConfig().elements_per_line)
        self.drivers = [
            DesPhaseDriver(
                self.system,
                StreamWorkload(stream).program(Location.REMOTE),
                instance=f"w{i}",
                footprint_lines=self.footprint_lines,
                instance_index=i,
            )
            for i in range(self.instances)
        ]
        total = sum(d.program.total_lines for d in self.drivers)
        self.start_ps = self.sim.now
        self.slice_ps = max(1, self.ps_per_txn * total // SLICES)
        self._procs = [d.start() for d in self.drivers]

    def done(self) -> bool:
        if not all(p.triggered for p in self._procs):
            return False
        for proc in self._procs:
            _ = proc.value  # re-raise a crashed driver
        return True

    def end_ps(self) -> int:
        return max(d.result.end_time for d in self.drivers if d.result is not None)


class StreamP4(_Stream):
    name = "stream-p4"
    why = "paper delay probe: one STREAM x128 at PERIOD=4, clean link, obs off; window never blocks"

    def anchors(self) -> Dict[str, bool]:
        cfg = self.system.config
        expected = (
            cfg.borrower.cpu.max_outstanding_misses
            * self.period
            * cfg.borrower.nic.fpga.clock_period
        )
        median = float(np.median(self.latencies()))
        return {"median sojourn = W*PERIOD*t_cyc (1.600 us, to 1 ns)": abs(median - expected) <= 1_000}


class Mcbn16(_Stream):
    name = "mcbn-16"
    why = "paper contention case: 16 STREAM x128 share one 128-slot window at PERIOD=1"
    period = 1
    instances = 16
    lines_per_array = 1_375
    footprint_lines = 1 << 14
    ps_per_txn = 9_100

    def anchors(self) -> Dict[str, bool]:
        bws = np.array([d.result.bandwidth_bytes_per_s for d in self.drivers])
        fair = bws.sum() / len(bws)
        return {
            "Jain index > 0.95": jain_fairness(bws) > 0.95,
            "per-instance bandwidth within 20% of aggregate/16": bool(
                np.all(np.abs(bws - fair) <= 0.20 * fair)
            ),
        }


class StreamAttrib(_Stream):
    name = "stream-attrib"
    why = "stream-p4 with trace+attrib recording on and sidecar extraction timed"
    lines_per_array = 8_100

    def make_system(self, config) -> ThymesisFlowSystem:
        self.obs = Observability(trace=True, attrib=True)
        self.timeline = self.obs.timeline
        return ThymesisFlowSystem(config, obs=self.obs, obs_label=self.name)

    def finish(self) -> None:
        self.obs.finish_system(self.system)
        self.sidecar = attribution_sidecar(
            self.obs.tracer, experiment=self.name, metrics=self.obs.metrics
        )

    def anchors(self) -> Dict[str, bool]:
        points = self.sidecar["points"]
        return {"sidecar mismatched == 0": bool(points) and all(p["mismatched"] == 0 for p in points)}


class ArqLossy(_Stream):
    name = "arq-lossy"
    why = "selective-repeat ARQ over 0.5% loss + 0.05% corruption per packet each way"
    lines_per_array = 10_000
    ps_per_txn = 12_900

    def make_system(self, config) -> ThymesisFlowSystem:
        config = config.with_fault(
            FaultConfig(loss_rate=0.005, corrupt_rate=0.0005)
        ).with_transport(TransportConfig(max_retries=8, selective_repeat=True))
        return ReliableThymesisFlowSystem(config, faults_armed=False)

    def arm(self) -> None:
        self.system.arm_faults()

    def anchors(self) -> Dict[str, bool]:
        return {"no retry exhaustion": self.system.transport.stats.exhausted == 0}


class OverloadOpen(Workload):
    """Open loop: fixed-spacing arrivals through the full overload ladder.

    A PERIOD 40 -> 4000 pulse every cycle drives the window into the
    metastable regime; the ladder must shed, trip and recover.  Each
    request's sojourn runs from its due time, so a stalled generator
    would show up as latency; ``late_ps_max`` reports how late it ran.
    """

    name = "overload-open"
    why = "open loop at 83% of gate capacity with PERIOD pulses; SR ARQ + full overload ladder"
    PERIOD_LOW = 40
    PERIOD_HIGH = 4000
    ARRIVAL_PS = int(nanoseconds(150))
    RTO_PS = int(microseconds(6))
    CYCLE_PS = int(microseconds(1500))
    PULSE_AT_PS = int(microseconds(200))
    PULSE_PS = int(microseconds(100))
    #: Pulse cycles at scale 1 (10k arrivals each).
    CYCLES = 14
    #: Goodput windows: before the first pulse, and after the last one
    #: has cleared and settled.
    PRE_START_PS = int(microseconds(80))
    SETTLE_PS = int(microseconds(100))

    def build(self) -> None:
        cycles = max(1, round(self.CYCLES * self.scale))
        self._horizon = cycles * self.CYCLE_PS
        steps = [(0, self.PERIOD_LOW)]
        for k in range(cycles):
            start = k * self.CYCLE_PS + self.PULSE_AT_PS
            steps += [(start, self.PERIOD_HIGH), (start + self.PULSE_PS, self.PERIOD_LOW)]
        self.last_pulse_end = steps[-1][0]
        config = paper_cluster_config(period=self.PERIOD_LOW, seed=self.seed).with_transport(
            TransportConfig(
                max_retries=1_000_000,  # exhaustion comes from the overload layer
                rto=self.RTO_PS,
                backoff=1.0,
                max_rto=self.RTO_PS,
                timer_from_send=True,
                selective_repeat=True,
            )
        )
        overload = OverloadConfig(
            deadline_ps=int(microseconds(40)),
            retry_budget_ratio=0.05,
            retry_budget_burst=4,
            admission="queue",
            admission_target_ps=self.RTO_PS,
            lender_admission=True,
            breaker_enabled=True,
            breaker_failure_threshold=5,
            breaker_reset_ps=int(microseconds(20)),
            breaker_backoff=2.0,
        )
        self.system = ReliableThymesisFlowSystem(
            config, schedule=DelaySchedule(steps), overload=overload
        )
        self.system.attach_or_raise(n_probes=8)
        self.arrivals = 0
        self.late_ps_max = 0
        self.sojourns: List[int] = []
        self.completions: List[int] = []
        self.start_ps = self.sim.now
        # Slices inside a pulse and its recovery complete nothing (up to
        # one in ten at small scales); cut more so 200 complete work.
        self.slice_ps = max(1, (self._horizon - self.start_ps) // (SLICES + SLICES // 10))
        self.sim.process(self._arrivals(), name="arrivals")

    def _arrivals(self):
        sim = self.sim
        base = self.system.config.remote_region_base
        line = self.system.line_bytes
        due = sim.now
        while due < self._horizon:
            late = sim.now - due
            if late > self.late_ps_max:
                self.late_ps_max = late
            sim.process(self._request(base + (self.arrivals % 4096) * line, due))
            self.arrivals += 1
            due += self.ARRIVAL_PS
            yield Timeout(sim, due - sim.now)

    def _request(self, addr: int, due: int):
        try:
            result = yield from self.system.remote_access(addr)
        except OverloadError:
            self.failfasts += 1
            return
        self.sojourns.append(result.complete_time - due)
        self.completions.append(result.complete_time)

    def done(self) -> bool:
        return self.sim.now >= self._horizon

    def horizon(self) -> Optional[int]:
        return self._horizon

    def latencies(self) -> np.ndarray:
        return np.asarray(self.sojourns, dtype=np.int64)

    def end_ps(self) -> int:
        return max(self.completions, default=self.start_ps)

    def _goodput(self, start: int, stop: int) -> float:
        done = sum(1 for t in self.completions if start <= t < stop)
        return done * 1e12 / (stop - start)

    def anchors(self) -> Dict[str, bool]:
        pre = self._goodput(self.PRE_START_PS, self.PULSE_AT_PS)
        post = self._goodput(self.last_pulse_end + self.SETTLE_PS, self._horizon)
        return {
            "post-pulse goodput within 10% of pre-pulse": pre > 0 and abs(post - pre) <= 0.10 * pre,
            "generator never late": self.late_ps_max == 0,
        }

    def facts(self) -> Dict[str, int]:
        return {"arrivals": self.arrivals, "generator_late_ps_max": self.late_ps_max}


WORKLOADS = {cls.name: cls for cls in (StreamP4, Mcbn16, ArqLossy, StreamAttrib, OverloadOpen)}


def make(name: str, seed: int, scale: float) -> Workload:
    """A fresh, unbuilt workload."""
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}") from None
    return cls(seed, scale)
