"""The two-node ThymesisFlow testbed: end-to-end remote-access path.

:class:`ThymesisFlowSystem` composes every substrate into the datapath
of the paper's Figure 1::

    borrower CPU --OpenCAPI--> [router -> DELAY INJECTOR -> mux ->
    packetizer] --link--> [lender NIC: translate -> memory bus/DRAM]
    --link--> borrower NIC ingress --OpenCAPI--> CPU

Timing is reservation-based: stateful servers (the injector gate, each
link direction, the lender memory bus) hand out absolute service
windows in O(1), so one remote cache-line transaction costs a small
constant number of simulation events regardless of PERIOD.

Reserving ahead: the clean round trip of a system with a private
lender and no ``gate``, ``wire``, ``availability`` or ``delivery``
stage and no live timeline reserves the lender bus and the reverse leg
at its gate grant and sleeps once, until its response is back.  Only
lender-local traffic could reserve that bus (or a timeline probe read
it) between the grant and the request's arrival; the link and the gate
are FIFO reservations, so without it the reservation order is the
arrival order.  Any other system sleeps until the request is at the
lender, so the shared bus sees arrivals in real order.  The choice is
made once, at construction; a lender-local phase's driver (or a
lender-local access) switches the system back to the sleeping path with
:meth:`ThymesisFlowSystem.share_lender_bus`, which raises once a
reservation has been made ahead of time.

There is one transaction pipeline, :meth:`ThymesisFlowSystem._transact`;
its variants are four stages picked at construction (``None`` is the
prototype's choice): ``gate`` (FIFO injector or
:class:`~repro.node.qos.PriorityGate`), ``wire`` (private link or
:class:`~repro.node.multipair.FabricWire`), ``availability`` (always up,
:class:`~repro.core.resilience.failures.LinkBlackout` or
:class:`~repro.node.multipair.LenderFailover`) and ``delivery`` (clean
round trip or :class:`~repro.node.reliable.ArqDelivery`).  Outages and
ARQ retry exhaustion all drive one ``remote / evacuating / local /
crashed`` mode machine.  Builders of several systems on one simulator
(:class:`~repro.node.multipair.BeyondRackDeployment`,
:class:`~repro.node.pool.MemoryPoolFabric`) hand each system its shared
lender node and its own RNG namespace at construction (``lender=``,
``rng=``).

The access entry points (:meth:`remote_access`, :meth:`local_access`,
:meth:`access`) are *generators* meant to be driven with ``yield from``
inside a workload process — they compose without spawning extra
Process objects per transaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.config import ClusterConfig
from repro.core.delay import DelayInjector, DelaySchedule
from repro.errors import (
    AttachError,
    HostCrash,
    LinkDetectionTimeout,
    OverloadError,
    RetryExhausted,
    SimulationError,
)
from repro.net.link import DuplexLink
from repro.nic.mux import Multiplexer, TrafficClass
from repro.nic.packet import HEADER_BYTES, Packet, PacketKind
from repro.nic.router import Route, Router
from repro.nic.timeout import DetectionWatchdog
from repro.nic.translation import WindowMapping, WindowTranslator
from repro.node.node import Node
from repro.obs import NULL_OBS
from repro.obs.tracer import ROW_ARQ, ROW_BLAMED
from repro.sim import EventLog, Process, RngStreams, Signal, Simulator, StatRecorder, Timeout
from repro.units import Duration, Time, format_time

__all__ = ["AccessResult", "ThymesisFlowSystem", "REMOTE", "EVACUATING", "LOCAL", "CRASHED"]

#: Remote-service modes of the availability state machine.
REMOTE, EVACUATING, LOCAL, CRASHED = "remote", "evacuating", "local", "crashed"

#: Empty record columns: unblamed snapshots; an ARQ row's tail.
_NO_SNAPSHOTS = (-1,) * 5
_NO_STAGES = (-1,) * 8


@dataclass(frozen=True)
class AccessResult:
    """Completion record of one memory transaction."""

    issue_time: Time
    complete_time: Time
    write: bool
    remote: bool
    retries: int = 0  # transport retransmissions spent (reliable path)

    @property
    def latency(self) -> Duration:
        """Sojourn time from issue to response."""
        return self.complete_time - self.issue_time


class ThymesisFlowSystem:
    """Borrower + lender pair with a delay-injected interconnect.

    Parameters
    ----------
    config:
        Full testbed configuration (see
        :func:`repro.calibration.paper_cluster_config`).
    schedule:
        Optional time-varying PERIOD schedule for the injector.
    sim:
        Supply an existing simulator to co-simulate several systems;
        a fresh one is created otherwise.
    obs:
        Observability bundle (:class:`repro.obs.Observability`).  The
        default :data:`~repro.obs.NULL_OBS` records nothing and adds
        only no-op calls; a live bundle collects per-request stage
        spans, metrics, and timeline snapshots for this system's runs.
    obs_label:
        Optional trace-process label for this run (sweep experiments
        pass their point key, e.g. ``"n=4"``); defaults to a
        class-name + PERIOD label.
    obs_shared:
        Attach as a secondary system of a shared simulator
        (:meth:`repro.obs.Observability.attach_shared`).
    gate, wire, availability, delivery:
        Datapath stages (see the module docstring); ``None`` keeps the
        paper prototype's FIFO injector, private link, always-up
        lender and clean round trip.  Each stage object serves one
        system.
    lender:
        The memory-serving :class:`~repro.node.node.Node`.  Builders
        that share one lender (an incast fabric, a memory pool) pass
        it here; ``None`` builds a private ``config.lender`` node.
    rng:
        Random-stream namespace for the injector and delivery stage.
        ``None`` is the root namespace of ``config.seed``; builders of
        several systems pass one namespace per borrower so their draws
        are independent.
    """

    def __init__(
        self,
        config: ClusterConfig,
        schedule: Optional[DelaySchedule] = None,
        sim: Optional[Simulator] = None,
        obs=None,
        obs_label: Optional[str] = None,
        gate=None,
        wire=None,
        availability=None,
        delivery=None,
        lender: Optional[Node] = None,
        rng: Optional[RngStreams] = None,
        obs_shared: bool = False,
    ) -> None:
        self.config = config
        self.sim = sim if sim is not None else Simulator()
        self.rng = rng if rng is not None else RngStreams(config.seed)
        self.obs = obs if obs is not None else NULL_OBS
        self.stats = StatRecorder(
            observed=self.obs.enabled, payload_bytes=config.borrower.cache.line_bytes
        )
        self.log = EventLog(self.sim, capacity=1024)

        self.borrower = Node(self.sim, config.borrower)
        self.lender = lender if lender is not None else Node(self.sim, config.lender)

        fpga = config.borrower.nic.fpga
        self.injector = DelayInjector(
            config.borrower.nic.injection, fpga, rng=self.rng, schedule=schedule
        )
        self.link = DuplexLink(config.link)
        self.router = Router(self.borrower.regions, latency=0)
        self.mux = Multiplexer(latency=0, qos_enabled=config.borrower.nic.response_priority)
        self.translator = WindowTranslator()
        self.watchdog = DetectionWatchdog(fpga.detection_timeout)

        self._attached = False
        self._seq = 0
        self._line = config.borrower.cache.line_bytes
        # Request kind -> (payload, request wire bytes, response wire
        # bytes); the clean round trip builds no Packet.
        self._wire: dict = {}
        for kind, payload in (
            (PacketKind.READ_REQ, self._line),
            (PacketKind.WRITE_REQ, self._line),
            (PacketKind.PROBE, 0),
        ):
            shape = Packet(kind=kind, src=0, dst=1, seq=0, addr=0, size=payload)
            self._wire[kind] = (payload, shape.wire_bytes, shape.response_wire_bytes)
        # Per-direction fixed latencies (see repro.calibration).
        self._egress_latency = fpga.host_interface_latency + fpga.pipeline_latency
        self._ingress_latency = fpga.pipeline_latency + fpga.host_interface_latency
        self._lender_latency = (
            config.borrower.nic.translation_latency + fpga.turnaround_latency
        )

        self.mode = REMOTE
        self.quarantined_at: Optional[Time] = None
        self.switchover_ps: Optional[int] = None
        self._crash_reason = ""
        self._evac_signal: Optional[Signal] = None
        self.gate = gate
        self.wire = wire
        self.availability = availability
        self.delivery = delivery
        if wire is None:
            self.fwd_leg, self.rev_leg = self.link.forward, self.link.reverse
        else:
            self.fwd_leg, self.rev_leg = wire.forward, wire.reverse
        for stage in (gate, delivery):
            if stage is not None:
                stage.bind(self)
        # Reserve ahead (see the module docstring): the clean round trip
        # reserves the lender bus and the reverse leg at its gate grant
        # and sleeps once, when nothing else can reserve or observe them
        # before the request arrives.  Lender-local traffic turns it off
        # (share_lender_bus).
        self._reserve_ahead = (
            lender is None
            and gate is None
            and wire is None
            and availability is None
            and delivery is None
            and self.obs.timeline is None
        )
        # After binding, so the timeline sees stage state (ARQ counters).
        attach = self.obs.attach_shared if obs_shared else self.obs.attach_system
        self._obs_pid = attach(self, label=obs_label)

    # ------------------------------------------------------------------
    # Control-plane operations
    # ------------------------------------------------------------------
    @property
    def attached(self) -> bool:
        """True once remote memory is hot-plugged and usable."""
        return self._attached

    def attach(self, n_probes: int = 256) -> Process:
        """Start the attach/hotplug handshake as a process.

        The handshake drives a pipelined burst of PROBE transactions
        through the full egress path (they traverse the injector like
        any other transaction) and feeds completions to the detection
        watchdog.  If per-transaction delay reaches the detection
        timeout — as at ``PERIOD = 10000``, where it is ~4 ms — the FPGA
        is declared absent and :class:`LinkDetectionTimeout` propagates
        (paper section IV-C).
        """
        return self.sim.process(self._attach_proc(n_probes), name="attach")

    def _attach_proc(self, n_probes: int) -> Generator:
        self.watchdog.start(self.sim.now)
        failures: list[BaseException] = []
        done: list[Process] = []

        addr = self.config.remote_region_base
        procs = [
            self.sim.process(self._transact(addr, PacketKind.PROBE), name=f"probe{i}")
            for i in range(n_probes)
        ]
        for proc in procs:
            try:
                result: AccessResult = yield proc
            except LinkDetectionTimeout as exc:
                failures.append(exc)
                break
            try:
                if result.retries:
                    # A retransmitted probe still proves the link is
                    # alive: its sojourn includes timer waits, not link
                    # absence, so only the progress timestamp advances.
                    self.watchdog.progress(result.complete_time)
                else:
                    self.watchdog.observe(result.complete_time, result.latency)
            except LinkDetectionTimeout as exc:
                failures.append(exc)
                break
            done.append(proc)
        if failures:
            self.log.emit("control", f"attach failed: {failures[0]}")
            raise AttachError(
                f"remote memory cannot be attached: {failures[0]}"
            ) from failures[0]
        self.install_window()
        self.log.emit("control", f"attach: window installed after {len(done)} probes")
        return self.sim.now

    def install_window(self) -> None:
        """Install the translation window and hot-plug the remote region.

        The attach handshake's success tail; a lender with no FPGA
        detection handshake (a CPU-less memory pool) calls it directly.
        """
        mapping = WindowMapping(
            borrower_base=self.config.remote_region_base,
            lender_base=0,
            size=self.config.remote_region_bytes,
        )
        self.translator.install(mapping)
        self.borrower.add_remote_region(
            base=self.config.remote_region_base,
            size=self.config.remote_region_bytes,
            name="thymesisflow",
        )
        self._attached = True

    def attach_or_raise(self, n_probes: int = 256) -> None:
        """Run the attach handshake to completion synchronously."""
        proc = self.attach(n_probes)
        self.sim.run()
        if not proc.ok:
            _ = proc.value  # re-raise the stored failure
        if not self._attached:  # pragma: no cover - defensive
            raise AttachError("attach did not complete")

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def share_lender_bus(self) -> None:
        """Order the lender bus by real arrival time from now on.

        Lender-local traffic reserves the private lender's bus too, so
        remote requests must stop reserving it ahead of their arrival
        (at the gate grant) and sleep until they reach the lender.  A
        lender-local phase's driver calls this when it is built, and a
        lender-local access calls it when it runs.  Once the bus holds a
        reservation made ahead of time, switching would let later
        arrivals queue behind it, so that raises
        :class:`~repro.errors.SimulationError` instead.
        """
        if not self._reserve_ahead:
            return
        if self.lender.dram.bus.transfers:
            raise SimulationError(
                "lender-local traffic after remote requests reserved the lender "
                "bus ahead of their arrival; build lender-local drivers (or call "
                "share_lender_bus) before the remote traffic starts"
            )
        self._reserve_ahead = False

    def remote_access(
        self,
        addr: int,
        write: bool = False,
        traffic_class: Optional[TrafficClass] = None,
    ) -> Generator:
        """One remote cache-line transaction at *addr* (generator).

        Reads fetch a line (data returns on the response); writes push
        a line (data rides the request, an ack returns).
        ``traffic_class`` tags the transaction for QoS-enabled systems
        (ignored by the vanilla FIFO datapath).  Raises
        :class:`AttachError` when first stepped before attach.
        """
        kind = PacketKind.WRITE_REQ if write else PacketKind.READ_REQ
        return self._transact(addr, kind, traffic_class)

    def _transact(
        self,
        addr: int,
        kind: PacketKind,
        traffic_class: Optional[TrafficClass] = None,
    ) -> Generator:
        """Drive one transaction through the full remote path.

        Generator — ``yield from`` it inside a process.  Returns an
        :class:`AccessResult` (a local one once the remote window is
        quarantined).  Only the attach handshake's probes run before
        the window is attached.
        """
        if not self._attached and kind is not PacketKind.PROBE:
            raise AttachError("remote memory is not attached")
        # Availability: an ``availability`` stage stalls across outages
        # (returning True), then the mode is re-read.
        while self.mode != REMOTE or self.availability is not None:
            mode = self.mode
            if mode == CRASHED:
                raise HostCrash(self._crash_reason)
            if mode == LOCAL:
                result = yield from self.fallback_access(kind)
                return result
            if mode == EVACUATING:
                yield self._evac_signal
            elif not (yield from self.availability.hold(self, addr, kind)):
                break
        if traffic_class is None:
            traffic_class = TrafficClass.NORMAL
        sim = self.sim
        write = kind is PacketKind.WRITE_REQ
        t_request = sim.now
        delivery = self.delivery
        if delivery is not None:
            delivery.check_breaker(kind)
        window = self.borrower.window
        if not window.try_acquire():
            yield window.acquire()
        if delivery is not None and not delivery.slots.try_acquire():
            yield delivery.slots.acquire()
        issue = sim.now
        self._seq = seq = self._seq + 1
        payload, request_bytes, response_bytes = self._wire[kind]

        # Attribution needs resource-idle snapshots *before* each
        # reservation: the gap between a reservation's start and the
        # earlier busy-until is queueing behind competing traffic.
        blaming = self.obs.attrib_enabled and kind is not PacketKind.PROBE

        if delivery is None:
            # Clean round trip.  Egress: OpenCAPI + router/pipeline,
            # then the gate (the default O(1) injector reservation is
            # FIFO, as vanilla ThymesisFlow).
            retries = 0
            valid_at = issue + self._egress_latency
            intrinsic = self.injector.intrinsic_grant(valid_at) if blaming else None
            gate = self.gate
            if gate is None:
                grant = self.injector.admit(valid_at)
            else:
                grant = yield from gate.admit(valid_at, traffic_class)
            # Mux + packetize + serialize onto the wire.
            if blaming:
                arrive_lender, fwd_busy = self.fwd_leg.transmit_blamed(request_bytes, grant)
            else:
                arrive_lender = self.fwd_leg.transmit(request_bytes, grant)

            # Unless reserving ahead, wait until the request is at the
            # lender before touching the lender's (shared) memory bus,
            # so cross-traffic ordering there reflects real arrivals.
            if not self._reserve_ahead and arrive_lender > sim.now:
                yield Timeout(sim, arrive_lender - sim.now)

            t = mem_ready = arrive_lender + self._lender_latency
            bus_busy = self.lender.dram.bus.busy_until() if blaming else 0
            if kind is not PacketKind.PROBE:
                self.translator.translate(addr)  # faults surface here
                t = self.lender.dram.access(self._line, t, write=write)

            if blaming:
                arrive_back, rev_busy = self.rev_leg.transmit_blamed(response_bytes, t)
            else:
                arrive_back = self.rev_leg.transmit(response_bytes, t)
            complete = arrive_back + self._ingress_latency
            if complete > sim.now:
                yield Timeout(sim, complete - sim.now)
        else:
            request = Packet(kind=kind, src=0, dst=1, seq=seq, addr=addr, size=payload)
            try:
                complete, retries, blame = yield from delivery.transfer(
                    request, t_request, issue, traffic_class, blaming
                )
            except OverloadError as exc:
                window.release()
                delivery.failed_fast(exc, seq, issue, traffic_class, blaming)
                raise
            except RetryExhausted as exc:
                window.release()
                delivery.exhausted(kind)
                # The first exhaustion decides the mode; transactions
                # that find the window already withdrawn follow it.
                if self.mode not in (LOCAL, CRASHED):
                    if delivery.degraded_mode:
                        self.quarantine(sim.now - t_request, f"seq {seq} exhausted retries")
                    else:
                        self.crash("borrower host checkstopped (remote window dead)")
                if self.mode == CRASHED:
                    raise HostCrash(f"borrower gave up on the remote window: {exc}") from exc
                result = yield from self.fallback_access(kind)
                return result

        window.release()
        if delivery is not None:
            delivery.delivered(kind, complete)
        if kind is not PacketKind.PROBE:
            # One row per transaction (columns: obs.tracer.RECORD_COLUMNS);
            # stats, metrics, spans and blame are all derived from it.
            if not self.obs.enabled:
                row = (t_request, issue, complete)
            elif delivery is None:
                row = (
                    t_request, issue, complete, seq, retries,
                    ROW_BLAMED if blaming else 0, issue,
                    valid_at, grant, arrive_lender, t, arrive_back,
                ) + (
                    (
                        -1 if intrinsic is None else intrinsic,
                        fwd_busy, mem_ready, bus_busy, rev_busy,
                    )
                    if blaming
                    else _NO_SNAPSHOTS
                )
            else:
                attempt_start, valid_at, grant = blame
                row = (
                    t_request, issue, complete, seq, retries,
                    ROW_ARQ | ROW_BLAMED if blaming else ROW_ARQ,
                    attempt_start, valid_at, grant,
                ) + _NO_STAGES
            self.stats.rows.extend(row)
        return AccessResult(issue, complete, write, remote=True, retries=retries)

    # ------------------------------------------------------------------
    # Mode machine: remote / evacuating / local / crashed
    # ------------------------------------------------------------------
    def crash(self, reason: str) -> None:
        """Checkstop the borrower: every later access raises HostCrash."""
        self.mode = CRASHED
        self._crash_reason = reason

    def quarantine(self, stall: Duration, cause: str) -> None:
        """Serve every later access locally; *stall* is the switchover stall."""
        if self.mode in (LOCAL, CRASHED):
            return  # another transaction got here first
        self.mode = LOCAL
        self.quarantined_at = self.sim.now
        self.switchover_ps = stall
        self.watchdog.reset()
        self.stats.count("degraded.switchovers")
        self.log.emit(
            "control",
            f"remote window quarantined after {cause} "
            f"(switchover stall {format_time(stall)}); "
            "serving from local fallback",
        )
        if self.obs.enabled:
            self.obs.metrics.count("degraded.switchovers")
            self.obs.metrics.observe("degraded.switchover_ps", stall)

    @property
    def quarantined(self) -> bool:
        """True once the remote window has been taken out of service."""
        return self.quarantined_at is not None

    def begin_evacuation(self, done: Signal) -> None:
        """Hold new transactions on *done* until :meth:`end_evacuation`."""
        self.mode = EVACUATING
        self._evac_signal = done

    def end_evacuation(self) -> None:
        """Resume remote service (unless quarantined or crashed meanwhile)."""
        if self.mode == EVACUATING:
            self.mode = REMOTE
        signal, self._evac_signal = self._evac_signal, None
        if signal is not None:
            signal.trigger(None)

    def local_access(
        self, node: Node, addr: int, write: bool = False
    ) -> Generator:
        """One local cache-line access on *node*'s DRAM (generator)."""
        if node is self.lender:
            self.share_lender_bus()
        sim = self.sim
        issue = sim.now
        complete = node.dram.access(self._line, issue + node.config.cpu.issue_overhead, write=write)
        if complete > sim.now:
            yield Timeout(sim, complete - sim.now)
        self.stats.count(f"{node.name}.local.transactions")
        return AccessResult(issue_time=issue, complete_time=complete, write=write, remote=False)

    def fallback_access(self, kind: PacketKind) -> Generator:
        """Serve a withdrawn remote access from borrower-local DRAM.

        The ``local`` mode's service path, whichever stage quarantined
        the window (ARQ retry exhaustion or a lender failover).  The
        local fallback pool is address-agnostic.
        """
        write = kind is PacketKind.WRITE_REQ
        result = yield from self.local_access(
            self.borrower, self.config.remote_region_base, write
        )
        self.stats.count("degraded.accesses")
        if self.obs.enabled:
            self.obs.metrics.count("degraded.accesses")
        return result

    def access(self, addr: int, write: bool = False) -> Generator:
        """Route an access by address: local DRAM or the remote path."""
        route = self.router.route(addr)
        if route is Route.REMOTE:
            result = yield from self.remote_access(addr, write)
        else:
            result = yield from self.local_access(self.borrower, addr, write)
        return result

    # ------------------------------------------------------------------
    # Measurement helpers
    # ------------------------------------------------------------------
    @property
    def line_bytes(self) -> int:
        """Cache-line transaction size."""
        return self._line

    def remote_latency_mean_ps(self) -> float:
        """Mean measured remote sojourn so far."""
        return self.stats.get_series("remote.latency_ps").mean()

    def remote_bytes_moved(self) -> float:
        """Remote payload bytes transferred so far."""
        return self.stats.counters.get("remote.payload_bytes", 0.0)

    def header_bytes(self) -> int:
        """Encapsulation header size used on the wire."""
        return HEADER_BYTES
