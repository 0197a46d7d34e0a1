"""Reliable delivery stage: ARQ over a lossy interconnect.

:class:`ArqDelivery` is the ``delivery`` stage of
:class:`~repro.node.cluster.ThymesisFlowSystem` that replaces the clean
fire-and-forget round trip with a per-transaction ARQ loop driven
against two :class:`~repro.net.faults.FaultyChannel` directions, which
wrap whatever ``wire`` stage the system uses (private link or fabric
route):

* every request is held in the NIC's bounded retransmit buffer until a
  (cumulative) ACK covers it; admission to the buffer is a counting
  semaphore, so buffer pressure backpressures the window;
* lender ingress CRC-verifies the wire bytes of every arrival whose
  header a fault struck (:meth:`~repro.nic.packet.Packet.decode`
  raises on them; an unstruck header is the sender's own packet) and
  NACKs corrupted arrivals, suppresses duplicates, and enforces the
  delivery discipline (go-back-N discards out-of-order arrivals;
  selective repeat buffers them);
* the sender retransmits on NACK or timer expiry with exponential
  backoff, up to ``transport.max_retries`` retransmissions; exhaustion
  raises :class:`~repro.errors.RetryExhausted`, which the system's mode
  machine turns into a checkstop (the default) or — with
  ``degraded_mode=True`` — a quarantine to local memory.

:class:`ReliableThymesisFlowSystem` is the testbed with this stage
plugged in.  A plain ``ThymesisFlowSystem`` pays nothing for it.

Late responses
--------------
The sender runs a strict timer: a response arriving after its
retransmission deadline is ignored (the window state has been reset for
the replay) and the transaction completes on a later attempt.  This
slightly inflates tail latency versus an opportunistic receiver but
keeps every attempt's accounting disjoint.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Generator, Optional, Tuple

from repro.calibration import default_rto_ps
from repro.config import ClusterConfig
from repro.core.delay import DelaySchedule
from repro.core.overload import OverloadConfig, OverloadControl
from repro.core.overload.deadline import expired
from repro.errors import (
    DeadlineExceeded,
    OverloadError,
    OverloadShed,
    ProtocolError,
    RetryExhausted,
)
from repro.net.faults import Delivery, FaultModel, FaultyChannel
from repro.nic.mux import TrafficClass
from repro.nic.packet import Packet, PacketKind
from repro.nic.transport import ReliableTransport
from repro.node.cluster import CRASHED, LOCAL, ThymesisFlowSystem
from repro.sim import Resource, Simulator, Timeout
from repro.units import Time

__all__ = ["ArqDelivery", "ReliableThymesisFlowSystem"]


class _Reply:
    """The lender's answer to one request, without a response Packet.

    It carries the cumulative ACK and the shed marker back to the
    sender.  To the fault model it is the response packet: the same
    ``wire_bytes``, and, when a bit strike needs the header, the same
    encoded bytes.
    """

    __slots__ = ("request", "cum_ack", "shed")

    def __init__(self, request: Packet, cum_ack: int, shed: bool = False) -> None:
        self.request = request
        self.cum_ack = cum_ack
        self.shed = shed

    @property
    def wire_bytes(self) -> int:
        return self.request.response_wire_bytes

    def encode(self) -> bytes:
        return self.request.make_response().encode()


class ArqDelivery:
    """Delivery stage: ARQ with optional overload control.

    ``config.fault`` of the system drives the per-packet fault model
    and ``config.transport`` the ARQ policy.

    Parameters
    ----------
    degraded_mode:
        On retry exhaustion, quarantine the remote window and fall back
        to local memory instead of crashing the borrower host.
    faults_armed:
        Initial arming state of both fault models.  The resilience
        sweeps pass ``False``, attach over a clean link, then arm the
        fault models so the handshake is not part of the chaos window.
    overload:
        Optional :class:`~repro.core.overload.OverloadConfig` enabling
        the overload-control layer (transaction deadlines, retry
        budgets, admission/shedding, per-lender circuit breaker,
        hedged reads).  ``None`` (the default) keeps the datapath
        bit-identical to a build without the layer.
    """

    def __init__(
        self,
        degraded_mode: bool = False,
        faults_armed: bool = True,
        overload: Optional[OverloadConfig] = None,
    ) -> None:
        self.degraded_mode = degraded_mode
        self.faults_armed = faults_armed
        self.overload_config = overload

    def bind(self, system: ThymesisFlowSystem) -> None:
        """Build the per-system transport state (called by the system)."""
        config = system.config
        self.system = system
        self.fault_fwd = FaultModel(
            config.fault, system.rng.spawn("net.fwd"), active=self.faults_armed
        )
        self.fault_rev = FaultModel(
            config.fault, system.rng.spawn("net.rev"), active=self.faults_armed
        )
        self._fwd = FaultyChannel(system.fwd_leg, self.fault_fwd)
        self._rev = FaultyChannel(system.rev_leg, self.fault_rev)
        rto = config.transport.rto
        if rto is None:
            rto = default_rto_ps(config.borrower.nic.injection.period)
        self.transport = ReliableTransport(config.transport, rto)
        self.slots = Resource(
            system.sim, config.transport.retransmit_buffer, name="nic.txbuf"
        )
        self.overload = OverloadControl.build(
            self.overload_config, rng=system.rng, name="lender"
        )
        self.protected = self.overload.enabled  # fixed once built

    # ------------------------------------------------------------------
    # Lender-side receive path
    # ------------------------------------------------------------------
    def _lender_ingress(
        self, delivery: Delivery, write: bool
    ) -> Tuple[Optional[Delivery], bool]:
        """Process one arrival at the lender NIC (at ``sim.now``).

        Returns ``(reverse_delivery, is_nack)``: the fate of whatever
        the lender sent back (``None`` for a go-back-N discard, which is
        silent and recovered by sender timeout).

        A NACK for a header-corrupted packet echoes the link-layer
        sequence number, which is assumed recoverable even when the
        transport header CRC fails (in the simulation the NACK is built
        from the original packet object).
        """
        system = self.system
        transport = self.transport
        t = system.sim.now + system._lender_latency
        try:
            packet = transport.receiver.verify(delivery)
        except ProtocolError:
            # ChecksumError (CRC), LinkCorruption (payload), or a
            # mangled magic/short header — all integrity failures.
            transport.stats.corrupt_drops += 1
            system.stats.count("transport.corrupt_drops")
            nack = delivery.packet.make_nack()
            return self._rev.transmit_packet(nack, t), True
        fresh, respond = transport.receiver.accept(packet.seq)
        if not respond:
            return None, False
        if fresh and delivery.packet.kind in (PacketKind.READ_REQ, PacketKind.WRITE_REQ):
            system.translator.translate(delivery.packet.addr)
            overload = self.overload
            if overload.lender_admission and not system.lender.dram.bus.try_admit(
                overload.admission, self._request_class(delivery.packet), t
            ):
                # Lender-side load shedding: the memory bus backlog is
                # beyond the admission target, so answer with a shed
                # marker instead of queueing the access — the borrower
                # fails fast without retrying.
                reply = _Reply(delivery.packet, transport.receiver.cum_ack, shed=True)
                return self._rev.transmit_packet(reply, t), False
            t = system.lender.dram.access(system._line, t, write=write)
        reply = _Reply(delivery.packet, transport.receiver.cum_ack)
        return self._rev.transmit_packet(reply, t), False

    @staticmethod
    def _request_class(packet: Packet) -> Optional[TrafficClass]:
        """Traffic class a request carried on the wire (overload only)."""
        tc = packet.meta.get("tc")
        return TrafficClass(tc) if tc is not None else None

    # ------------------------------------------------------------------
    # Pipeline hooks (called by ThymesisFlowSystem._transact)
    # ------------------------------------------------------------------
    def check_breaker(self, kind: PacketKind) -> None:
        """Fail fast before taking a window slot while the breaker is open.

        Overload control is a no-op bundle unless configured; probes
        (the attach handshake) bypass it entirely.
        """
        overload = self.overload
        if self.protected and kind is not PacketKind.PROBE and overload.breaker is not None:
            try:
                overload.breaker.check(self.system.sim.now)
            except OverloadError:
                self._count_overload_failure("breaker")
                raise

    def transfer(
        self,
        request: Packet,
        t_request: Time,
        issue: Time,
        traffic_class: TrafficClass,
        blaming: bool,
    ) -> Generator:
        """The per-transaction ARQ loop (generator).

        Returns ``(complete, retries, final)``, *final* being the
        successful attempt's ``(attempt_start, valid_at, grant)``;
        raises :class:`RetryExhausted` or an :class:`OverloadError`.
        """
        system = self.system
        sim = system.sim
        transport = self.transport
        overload = self.overload
        kind = request.kind
        write = kind is PacketKind.WRITE_REQ
        guarded = self.protected and kind is not PacketKind.PROBE
        txn_deadline = overload.deadline_for(t_request) if guarded else None
        if guarded and overload.lender_admission:
            request.meta["tc"] = int(traffic_class)
        transport.buffer.add(request)
        transport.stats.sent += 1
        if guarded:
            overload.note_first_attempt()

        rto = transport.initial_rto
        attempt = 0  # total replays of this packet (stats, AccessResult)
        charged = 0  # replays counted against the retry budget
        attempt_start = issue  # blame tiling: attempts are contiguous
        attempt_log: list = []  # (attempt, time_ps, cause) history
        try:
            while True:
                attempt_send = sim.now
                if guarded:
                    if expired(txn_deadline, sim.now):
                        # Fail fast before queueing doomed work: the
                        # transaction is out of budget, so the gate and
                        # the wire never see this attempt.
                        raise DeadlineExceeded(
                            f"seq {request.seq} out of deadline budget "
                            f"before attempt {attempt + 1}",
                            attempts=tuple(attempt_log),
                            gave_up_at=sim.now,
                        )
                    if overload.admission is not None and not overload.admit(
                        traffic_class, 0, system.injector.backlog_ps(sim.now)
                    ):
                        overload.record_shed(traffic_class)
                        raise OverloadShed(
                            f"seq {request.seq} shed at the NIC gate "
                            f"(backlog beyond admission target)",
                            attempts=tuple(attempt_log),
                            gave_up_at=sim.now,
                        )
                # Egress pipeline + gate, every attempt: a
                # retransmission traverses the full datapath again.
                valid_at = sim.now + system._egress_latency
                gate = system.gate
                if gate is None:
                    grant = system.injector.admit(valid_at)
                else:
                    grant = yield from gate.admit(valid_at, traffic_class)
                if not transport.buffer.holds(request.seq):
                    # A cumulative ACK freed the slot (the lender has
                    # the request) but our own response died; replay
                    # still needs a resident copy.
                    transport.buffer.add(request)
                replay = transport.buffer.get(request.seq)
                delivery = self._fwd.transmit_packet(replay, grant)
                # The retransmission timer arms at the gate grant (a
                # hardware timer starts when the packet hits the wire)
                # unless ``timer_from_send`` models a software ARQ whose
                # RTO covers local queueing too.
                timer_base = attempt_send if transport.config.timer_from_send else grant
                hedged = (
                    guarded
                    and overload.hedge_after_ps is not None
                    and attempt == 0
                    and kind is PacketKind.READ_REQ
                    and overload.hedge_after_ps < rto
                )
                timer = overload.hedge_after_ps if hedged else rto
                deadline = transport.attempt_deadline(timer_base, timer, txn_deadline)

                response_at: Optional[Time] = None
                nack_at: Optional[Time] = None
                reply: Optional[_Reply] = None
                if delivery.delivered:
                    if delivery.arrival > sim.now:
                        yield Timeout(sim, delivery.arrival - sim.now)
                    reverse, is_nack = self._lender_ingress(delivery, write)
                    response_at, nack_at, reply = self._classify_reverse(
                        reverse, is_nack
                    )
                    if response_at is None and delivery.duplicate_arrival is not None:
                        # The channel-made duplicate is the only hope:
                        # replay the same wire bytes at its arrival (the
                        # lender sees a duplicate and responds again).
                        if delivery.duplicate_arrival > sim.now:
                            yield Timeout(sim, delivery.duplicate_arrival - sim.now)
                        copy = replace(delivery, duplicate_arrival=None)
                        reverse, is_nack = self._lender_ingress(copy, write)
                        response_at, nack_at, reply = self._classify_reverse(
                            reverse, is_nack, nack_at
                        )

                if response_at is not None and response_at <= deadline:
                    if response_at > sim.now:
                        yield Timeout(sim, response_at - sim.now)
                    transport.on_response(request, reply.cum_ack)
                    if reply.shed:
                        # The lender's memory bus refused the work: the
                        # reply is an ACK (the seq is consumed) but the
                        # access never ran — surface the shed instead of
                        # retrying into an overloaded lender.
                        overload.record_shed(traffic_class)
                        raise OverloadShed(
                            f"seq {request.seq} shed at the lender memory bus",
                            attempts=tuple(attempt_log),
                            gave_up_at=sim.now,
                        )
                    return response_at, attempt, (attempt_start, valid_at, grant)

                # Lost / corrupted / discarded / late: recover on the
                # NACK (fast retransmit) or the retransmission timer.
                fast = nack_at is not None and nack_at < deadline
                wake = nack_at if fast else deadline
                if wake > sim.now:
                    yield Timeout(sim, wake - sim.now)
                if system.mode in (LOCAL, CRASHED):
                    # Another in-flight transaction (or the failover
                    # coordinator) withdrew the remote window while we
                    # slept.
                    raise RetryExhausted(
                        f"remote window withdrawn during recovery of "
                        f"seq {request.seq}",
                        attempts=tuple(attempt_log),
                        gave_up_at=sim.now,
                    )
                attempt += 1
                attempt_log.append((attempt, sim.now, "nack" if fast else "timeout"))
                if fast:
                    transport.stats.nacks += 1
                else:
                    transport.stats.timeouts += 1
                obs = system.obs
                if hedged and not fast:
                    # A hedge firing is a proactive duplicate, not a
                    # suspected loss: it is not charged to any budget.
                    overload.hedges += 1
                    if obs.enabled:
                        obs.metrics.count("overload.hedges")
                    transport.free_replay()
                elif transport.eligible_for_budget(request.seq):
                    charged += 1
                    if guarded:
                        # Deadline outranks the budget: no point spending
                        # a retry token on a transaction already due to
                        # be abandoned.
                        if expired(txn_deadline, sim.now):
                            raise DeadlineExceeded(
                                f"seq {request.seq} out of deadline budget "
                                f"before retransmission {charged}",
                                attempts=tuple(attempt_log),
                                gave_up_at=sim.now,
                            )
                        overload.charge_retry(
                            request.seq, attempts=tuple(attempt_log)
                        )
                    transport.charge_retry(
                        request,
                        charged,
                        sim.now,
                        txn_deadline=txn_deadline,
                        attempts=tuple(attempt_log),
                    )
                else:
                    transport.free_replay()
                system.stats.count("transport.retx")
                if obs.enabled:
                    obs.metrics.count("transport.retx")
                    if obs.tracer.enabled:
                        # Under ``timer_from_send`` the timer can expire
                        # while the attempt is still gate-queued (wake <
                        # grant); the span then shows the doomed tail.
                        obs.tracer.add_span(
                            "transport.retry",
                            min(grant, wake),
                            max(grant, wake),
                            pid=system._obs_pid or 1,
                            track="transport.retry",
                            cat="fault",
                            args={"seq": request.seq, "attempt": attempt},
                        )
                    if blaming:
                        # The failed attempt's datapath time is blamed
                        # `retry`, the timer/NACK wait `backoff`; the
                        # next attempt starts where this one ends, so
                        # the attempt chain tiles [issue, complete].
                        self._blame_failed_attempt(
                            request.seq, attempt_start, grant, sim.now
                        )
                        attempt_start = sim.now
                rto = transport.next_rto(rto)
        except OverloadError as exc:
            exc.attempt_start = attempt_start
            raise

    def delivered(self, kind: PacketKind, complete: Time) -> None:
        """Success epilogue, after the window slot is released."""
        self.slots.release()
        if self.protected and kind is not PacketKind.PROBE:
            self.overload.record_outcome(True, complete)

    def exhausted(self, kind: PacketKind) -> None:
        """Retry-exhaustion epilogue, after the window slot is released."""
        system = self.system
        self.slots.release()
        system.stats.count("transport.exhausted")
        if self.protected and kind is not PacketKind.PROBE:
            self.overload.record_outcome(False, system.sim.now)
        if system.obs.enabled:
            system.obs.metrics.count("transport.exhausted")

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _blame_failed_attempt(
        self, seq: int, attempt_start: Time, grant: Time, wake: Time
    ) -> None:
        """Charge one doomed ARQ attempt: datapath replay + timer wait."""
        tracer = self.system.obs.tracer
        pid = self.system._obs_pid or 1
        # A software timer (``timer_from_send``) can fire while the
        # attempt is still queued at the gate; clamp the grant into the
        # attempt's interval so the blame rows tile [attempt_start,
        # wake] exactly instead of leaking past the next attempt.
        grant = min(max(grant, attempt_start), wake)
        if grant > attempt_start:
            tracer.add_blame(
                "retry", attempt_start, grant, pid=pid, seq=seq, resource="transport.arq"
            )
        if wake > grant:
            tracer.add_blame(
                "backoff", grant, wake, pid=pid, seq=seq, resource="transport.rto"
            )

    def _count_overload_failure(self, reason: str) -> None:
        """Count one overload fail-fast under ``overload.<reason>``."""
        system = self.system
        system.stats.count(f"overload.{reason}")
        if system.obs.enabled:
            system.obs.metrics.count(f"overload.{reason}")

    def failed_fast(
        self,
        exc: OverloadError,
        seq: int,
        issue: Time,
        traffic_class: TrafficClass,
        blaming: bool,
    ) -> None:
        """Overload fail-fast epilogue, after the window slot is released.

        The failed transaction still gets a blame envelope: the
        interval since the last attempt boundary is charged ``backoff``
        on the failing overload resource (``overload.deadline`` /
        ``overload.retry_budget`` / ``overload.shed`` /
        ``overload.breaker``) so attribution rows tile
        ``[issue, fail_at]`` exactly and ``repro obs attrib`` shows the
        suppression explicitly.
        """
        system = self.system
        obs = system.obs
        self.slots.release()
        self.transport.buffer.ack(seq)  # idempotent; frees the replay slot
        reason = exc.blame_resource.rsplit(".", 1)[1]
        self._count_overload_failure(reason)
        if obs.enabled and isinstance(exc, OverloadShed):
            obs.metrics.count(f"overload.shed.{traffic_class.name.lower()}")
        fail_at = system.sim.now
        self.overload.record_outcome(False, fail_at)
        if blaming and obs.enabled and obs.tracer.enabled and fail_at > issue:
            tracer = obs.tracer
            pid = system._obs_pid or 1
            if fail_at > exc.attempt_start:
                tracer.add_blame(
                    "backoff",
                    exc.attempt_start,
                    fail_at,
                    pid=pid,
                    seq=seq,
                    resource=exc.blame_resource,
                )
            tracer.add_request(seq, issue, fail_at, pid=pid)

    def _classify_reverse(
        self,
        reverse: Optional[Delivery],
        is_nack: bool,
        nack_at: Optional[Time] = None,
    ) -> Tuple[Optional[Time], Optional[Time], Optional[_Reply]]:
        """Fate of the lender's reply as seen at the borrower ingress."""
        if reverse is None or not reverse.delivered:
            return None, nack_at, None
        if reverse.corrupted:
            # The reply died at the borrower ingress CRC; recovered by
            # the retransmission timer like a plain loss.
            self.transport.stats.corrupt_drops += 1
            self.system.stats.count("transport.corrupt_drops")
            return None, nack_at, None
        at = reverse.arrival + self.system._ingress_latency
        if is_nack:
            return None, at if nack_at is None else min(nack_at, at), None
        return at, nack_at, reverse.packet


class ReliableThymesisFlowSystem(ThymesisFlowSystem):
    """Borrower/lender pair with an :class:`ArqDelivery` stage.

    The extra parameters are the stage's; its transport, overload
    bundle and fault models are exposed as attributes.
    """

    def __init__(
        self,
        config: ClusterConfig,
        schedule: Optional[DelaySchedule] = None,
        sim: Optional[Simulator] = None,
        obs=None,
        degraded_mode: bool = False,
        faults_armed: bool = True,
        overload: Optional[OverloadConfig] = None,
        obs_label: Optional[str] = None,
    ) -> None:
        super().__init__(
            config,
            schedule=schedule,
            sim=sim,
            obs=obs,
            obs_label=obs_label,
            delivery=ArqDelivery(degraded_mode, faults_armed, overload),
        )
        arq = self.delivery
        self.transport, self.overload = arq.transport, arq.overload
        self.fault_fwd, self.fault_rev = arq.fault_fwd, arq.fault_rev

    def arm_faults(self) -> None:
        """Start injecting faults on both link directions."""
        self.fault_fwd.arm()
        self.fault_rev.arm()
