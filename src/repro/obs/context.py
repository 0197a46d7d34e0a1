"""The per-run observability bundle and its null-object twin.

:class:`Observability` groups the three layers — span tracer, metrics
registry + timeline sampler, event-loop profiler — behind one handle
that components receive as an optional constructor argument.  The
:data:`NULL_OBS` singleton (a :class:`NullObservability`) is the
default everywhere: every recording call on it is a no-op and it never
installs the simulator observer hook, so a run without observability
executes exactly the seed code path.

Wiring happens in :meth:`Observability.attach_system`, which is
duck-typed against :class:`~repro.node.cluster.ThymesisFlowSystem`:
it opens a trace process for the run, points the timeline sampler at
the system's health probes (bandwidth, MSHR occupancy, lender-bus
backlog, injector stall fraction), and installs the step-hook observer
that drives profiling and cadence sampling.  The observer only *wraps*
callback execution and reads state — it never schedules events — so
enabling observability cannot perturb simulated timestamps or event
order (pinned by tests/obs/test_determinism.py).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import LoopProfiler
from repro.obs.timeline import TimelineSampler
from repro.obs.tracer import (
    ROW_ARQ,
    ROW_BLAMED,
    STAGE_BOUNDARIES,
    STAGE_NAMES,
    NullTracer,
    Tracer,
    bridge_eventlog,
    datapath_blame_splits,
)

__all__ = ["Observability", "NullObservability", "NULL_OBS", "SimObserver"]

#: Default timeline cadence: one snapshot per simulated microsecond.
DEFAULT_CADENCE_PS = 1_000_000

#: Picoseconds per second (rate-probe conversion).
_PS_PER_S = 1_000_000_000_000


class SimObserver:
    """Step-hook dispatcher installed on :class:`~repro.sim.core.Simulator`.

    Fires each event's callback (through the profiler when enabled)
    and lets the timeline sampler snapshot whenever the simulated clock
    crosses a cadence boundary.
    """

    __slots__ = ("profiler", "timeline")

    def __init__(
        self,
        profiler: Optional[LoopProfiler],
        timeline: Optional[TimelineSampler],
    ) -> None:
        self.profiler = profiler
        self.timeline = timeline

    def on_event(self, sim, handle) -> None:
        """Execute one event under observation."""
        if self.profiler is not None:
            self.profiler.on_event(sim, handle)
        else:
            handle.callback(*handle.args)
        if self.timeline is not None:
            self.timeline.maybe_sample(sim.now)


class Observability:
    """Live observability bundle for one experiment invocation.

    Parameters
    ----------
    trace:
        Collect per-request spans (Chrome-trace exportable).
    metrics:
        Collect histograms/counters/gauges and timeline snapshots.
    profile:
        Time event callbacks with the wall clock.
    cadence_ps:
        Simulated time between timeline snapshots.
    attrib:
        Record causal blame spans alongside the stage decomposition
        (requires ``trace``).  Off by default so plain ``--trace-out``
        runs pay only the seed tracing cost; ``--attrib-out`` turns it
        on.
    """

    enabled = True

    def __init__(
        self,
        trace: bool = True,
        metrics: bool = True,
        profile: bool = False,
        cadence_ps: int = DEFAULT_CADENCE_PS,
        attrib: bool = False,
    ) -> None:
        self.tracer: Union[Tracer, NullTracer] = Tracer() if trace else NullTracer()
        self.attrib_enabled = bool(attrib and trace)
        self.metrics = MetricsRegistry()
        self.metrics_enabled = metrics
        self.timeline: Optional[TimelineSampler] = (
            TimelineSampler(cadence_ps) if metrics else None
        )
        self.profiler: Optional[LoopProfiler] = LoopProfiler() if profile else None
        # Every lender bus this bundle tracks queue waits on, and those
        # already folded into the metrics: pairs share lenders, and a
        # pair that fails over leaves its old lender's bus behind.
        self._lender_buses: list = []
        self._folded_buses: list = []

    # ------------------------------------------------------------------
    def attach_system(self, system, label: Optional[str] = None) -> int:
        """Wire this bundle into a freshly built testbed; returns the pid.

        Safe to call once per system; several systems sharing one
        simulator reuse the installed observer.
        """
        if label is None:
            try:
                period = system.config.borrower.nic.injection.period
                label = f"{type(system).__name__} PERIOD={period}"
            except AttributeError:
                label = type(system).__name__
        pid = self.tracer.begin_process(label, system.stats) if self.tracer.enabled else 0
        sim = system.sim
        self.track_lender(system.lender)
        if self.timeline is not None:
            self.timeline.begin_run(label, sim.now)
            self._register_probes(system)
        if self.profiler is not None or self.timeline is not None:
            sim.set_observer(SimObserver(self.profiler, self.timeline))
        return pid

    def _register_probes(self, system) -> None:
        timeline = self.timeline
        assert timeline is not None
        window = system.borrower.window
        injector = system.injector
        sim = system.sim
        # The lender bus is looked up on every sample: failover can move
        # the pair to another lender mid-run.
        timeline.rate_probe(
            "bandwidth_bytes_per_s", _bus_bytes_served(system), scale=_PS_PER_S
        )
        timeline.add_probe("mshr_occupancy", lambda: window.outstanding)
        timeline.add_probe(
            "lender_bus_backlog_ps",
            lambda: max(0, system.lender.dram.bus.busy_until() - sim.now),
        )
        # Mean number of transactions stalled at the injector gate over
        # the row's interval (delta of summed wait time / elapsed).
        timeline.rate_probe("injector_stall_frac", lambda: injector.wait_sum_ps, scale=1.0)
        timeline.add_probe("events_processed", lambda: sim.events_processed)
        # An ARQ delivery stage exposes its transport counters; other
        # systems have none, and the probe costs them nothing.
        transport = getattr(getattr(system, "delivery", None), "transport", None)
        if transport is not None:
            timeline.add_probe(
                "transport_retransmissions", lambda: transport.stats.retransmissions
            )
            timeline.add_probe(
                "retransmit_buffer_occupancy", lambda: len(transport.buffer)
            )

    def attach_shared(self, system, label: Optional[str] = None) -> int:
        """Wire a *secondary* system of a shared-simulator deployment.

        :meth:`attach_system` is per-run: ``timeline.begin_run`` resets
        every probe, so calling it once per pair of a
        :class:`~repro.node.multipair.BeyondRackDeployment` would leave
        only the last pair observed.  Secondary pairs use this instead:
        they get their own trace process (distinct pid) and lender-bus
        queue-wait tracking, while the timeline/observer installed by
        the primary pair's :meth:`attach_system` keeps running.
        """
        if label is None:
            label = type(system).__name__
        pid = self.tracer.begin_process(label, system.stats) if self.tracer.enabled else 0
        self.track_lender(system.lender)
        return pid

    def track_lender(self, lender) -> None:
        """Track queue waits on *lender*'s memory bus (metrics runs only).

        Called at attach time and again whenever failover moves a pair
        to another lender, so the run's ``lender.bus_queue_wait_ps``
        covers every bus it used.
        """
        if not self.metrics_enabled:
            return
        bus = lender.dram.bus
        bus.enable_queue_wait_tracking()
        if not any(tracked is bus for tracked in self._lender_buses):
            self._lender_buses.append(bus)

    def _fold(self, system) -> None:
        """Merge the system's MSHR and lender-bus wait histograms (each
        distinct tracked bus once per bundle: systems that share a lender
        share its bus), then derive the per-transaction histograms and
        the ``remote.transactions``/``blame.*``/``injector.*`` counters
        from its transaction record."""
        metrics = self.metrics
        window_hist = getattr(system.borrower.window, "wait_hist", None)
        if window_hist is not None and window_hist.count:
            metrics.histogram("cpu.mshr_wait_ps").merge(window_hist)
        for bus in self._lender_buses:
            bus_hist = bus.queue_wait_hist
            if not bus_hist.count or any(folded is bus for folded in self._folded_buses):
                continue
            self._folded_buses.append(bus)
            metrics.histogram("lender.bus_queue_wait_ps").merge(bus_hist)
        record = system.stats
        if not len(record):
            return
        cols = record.table()
        issue = cols["issue"]
        metrics.histogram("remote.latency_ps").record_all(cols["complete"] - issue)
        metrics.histogram("cpu.window_wait_ps").record_all(issue - cols["t_request"])
        flags = cols["flags"]
        clean = (flags & ROW_ARQ) == 0
        if clean.any():
            bounds = [cols[name][clean] for name in STAGE_BOUNDARIES]
            for name, start, end in zip(STAGE_NAMES, bounds, bounds[1:]):
                metrics.histogram(f"stage.{name}_ps").record_all(end - start)
        retries = cols["retries"]
        retries = retries[retries != 0]
        if len(retries):
            metrics.histogram("transport.retries_per_txn").record_all(retries)
        metrics.count("remote.transactions", len(record))
        blamed = (flags & (ROW_ARQ | ROW_BLAMED)) == ROW_BLAMED
        if not blamed.any():
            return
        cols = {name: col[blamed] for name, col in cols.items()}
        inj, qf, qr, cont = datapath_blame_splits(cols)[:4]
        queued = qf + qr
        latency = cols["complete"] - cols["issue"]
        for cat, values in (
            ("contention", cont),
            ("injected_delay", inj),
            ("queue_wait", queued),
            ("service", latency - inj - queued - cont),
        ):
            total = int(values.sum())
            if total:
                metrics.count(f"blame.{cat}_ps", total)
        # Sub-split of injected delay: grid alignment a lone transaction
        # would see vs backlog behind earlier grants.
        intrinsic = cols["intrinsic_grant"]
        known = (inj != 0) & (intrinsic != -1)
        valid_at, grant = cols["valid_at"][known], cols["grant"][known]
        alignment = np.minimum(np.maximum(intrinsic[known], valid_at), grant)
        align = int((alignment - valid_at).sum())
        backlog = int((grant - alignment).sum())
        if align or backlog:
            metrics.count("injector.alignment_ps", align)
            metrics.count("injector.backlog_ps", backlog)

    def finish_shared(self, system, pid: Optional[int] = None) -> None:
        """Close out a secondary shared-simulator system.

        Folds the system's histograms and transaction record —
        everything :meth:`finish_system` does *except* the stat gauges,
        the timeline flush and observer teardown, which belong to the
        deployment's primary pair (finish it last).
        """
        if pid is None:
            pid = getattr(system, "_obs_pid", 1) or 1
        if self.metrics_enabled:
            self._fold(system)
        log = getattr(system, "log", None)
        if log is not None and self.tracer.enabled:
            bridge_eventlog(self.tracer, log, pid=pid)

    def finish_system(self, system, pid: Optional[int] = None) -> None:
        """Close out one system's run: final snapshot, histogram folds,
        stat-summary gauges, and the event-log → trace bridge."""
        if pid is None:
            pid = getattr(system, "_obs_pid", 1) or 1
        if self.timeline is not None:
            self.timeline.flush_run(system.sim.now)
        if self.metrics_enabled:
            self._fold(system)
            # The run's flat summary (tail percentiles included) goes in
            # as gauges, so exported metrics carry the numbers the
            # experiment printed.
            for key, value in system.stats.summary().items():
                self.metrics.gauge(f"stats.{key}", value)
        log = getattr(system, "log", None)
        if log is not None and self.tracer.enabled:
            bridge_eventlog(self.tracer, log, pid=pid)
        system.sim.clear_observer()

    # ------------------------------------------------------------------
    # Artifact writers (used by the CLI)
    # ------------------------------------------------------------------
    def write_trace(self, path: str) -> str:
        """Write the Chrome/Perfetto trace JSON; returns the path."""
        if not isinstance(self.tracer, Tracer):
            raise ValueError("tracing was not enabled for this run")
        return self.tracer.write(path)

    def write_attrib(self, path: str, experiment: str = "") -> str:
        """Write the causal-attribution sidecar JSON; returns the path."""
        from repro.obs.attrib import attribution_sidecar, write_sidecar

        if not isinstance(self.tracer, Tracer):
            raise ValueError("attribution requires tracing to be enabled")
        sidecar = attribution_sidecar(
            self.tracer,
            experiment=experiment,
            metrics=self.metrics if self.metrics_enabled else None,
        )
        return write_sidecar(sidecar, path)

    def write_metrics(self, path: str) -> str:
        """Write the metrics timeline (JSONL, or CSV by extension)."""
        if self.timeline is None:
            raise ValueError("metrics were not enabled for this run")
        if path.endswith(".csv"):
            return self.timeline.write_csv(path)
        return self.timeline.write_jsonl(path, summary=self.metrics.dump())


def _bus_bytes_served(system):
    """Bytes served by *system*'s current lender bus, as one counter:
    re-based when failover moves the pair to another lender."""
    bus = system.lender.dram.bus
    base = 0

    def served() -> int:
        nonlocal bus, base
        current = system.lender.dram.bus
        if current is not bus:
            base += bus.bytes_served - current.bytes_served
            bus = current
        return base + current.bytes_served

    return served


class NullObservability:
    """Disabled observability: the default for every component."""

    enabled = False
    metrics_enabled = False
    attrib_enabled = False
    timeline = None
    profiler = None

    def __init__(self) -> None:
        self.tracer = NullTracer()
        self.metrics = _NullMetrics()

    def attach_system(self, system, label: Optional[str] = None) -> int:
        return 0

    def attach_shared(self, system, label: Optional[str] = None) -> int:
        return 0

    def track_lender(self, lender) -> None:
        return None

    def finish_system(self, system, pid: int = 0) -> None:
        return None

    def finish_shared(self, system, pid: int = 0) -> None:
        return None


class _NullMetrics:
    """No-op stand-in for :class:`~repro.obs.metrics.MetricsRegistry`."""

    __slots__ = ()

    def count(self, name: str, amount: float = 1.0) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None


#: Shared disabled bundle (stateless; safe to share between systems).
NULL_OBS = NullObservability()
