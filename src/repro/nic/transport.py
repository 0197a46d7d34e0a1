"""Reliable NIC transport: sequence numbers, ACKs, retransmission.

ThymesisFlow's hardware transport assumes a clean point-to-point
cable; once the link can lose, corrupt, reorder, or duplicate packets
(:mod:`repro.net.faults`), reliability has to become a first-class
transport concern, as it is in real disaggregation fabrics (Clio's
ordered reliable hardware transport, EDM's in-fabric loss recovery).
This module provides the two endpoint state machines:

* the **sender** side — a bounded :class:`RetransmitBuffer` holding
  unacknowledged packets, freed by cumulative ACKs piggybacked on
  response packets, plus the retry/backoff bookkeeping
  (:class:`ReliableTransport`);
* the **receiver** side (:class:`LenderIngress`) — wire-header CRC
  verification (the :meth:`~repro.nic.packet.Packet.decode` CRC check
  runs on every delivery whose header a fault struck; an unstruck
  header decodes to the sender's own fields, so it is not re-run),
  duplicate suppression, and the delivery discipline:
  go-back-N (in-order only; out-of-order arrivals are discarded and
  recovered by sender timeout) or selective repeat (out-of-order
  arrivals are buffered and only the gap is resent).

The driving loop that charges simulated time lives in
:class:`repro.node.reliable.ArqDelivery`; everything
here is pure state machinery, unit-testable without a simulator.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.config import TransportConfig
from repro.core.overload.deadline import check_deadline, clamp_wake
from repro.errors import LinkCorruption, ProtocolError, RetryExhausted
from repro.nic.packet import Packet

if TYPE_CHECKING:  # repro.net.faults imports repro.nic.packet; avoid the cycle
    from repro.net.faults import Delivery
from repro.units import Duration, Time

__all__ = [
    "TransportStats",
    "RetransmitBuffer",
    "LenderIngress",
    "ReliableTransport",
]


@dataclass
class TransportStats:
    """Transport outcome counters (exported to obs metrics/probes)."""

    sent: int = 0  # first-attempt packets offered to the wire
    retransmissions: int = 0  # extra copies sent (timeout or NACK)
    timeouts: int = 0  # retransmission timer expiries
    nacks: int = 0  # NACKs received by the sender
    acks: int = 0  # acknowledged deliveries (responses accepted)
    dup_suppressed: int = 0  # duplicate requests absorbed at the lender
    corrupt_drops: int = 0  # integrity failures at either ingress
    discarded_out_of_order: int = 0  # go-back-N receiver discards
    exhausted: int = 0  # packets that spent their retry budget

    def as_dict(self) -> Dict[str, int]:
        """Counter snapshot (sweep rows, metrics export)."""
        return {
            "sent": self.sent,
            "retransmissions": self.retransmissions,
            "timeouts": self.timeouts,
            "nacks": self.nacks,
            "acks": self.acks,
            "dup_suppressed": self.dup_suppressed,
            "corrupt_drops": self.corrupt_drops,
            "discarded_out_of_order": self.discarded_out_of_order,
            "exhausted": self.exhausted,
        }


class RetransmitBuffer:
    """Bounded buffer of sent-but-unacknowledged packets.

    Models the FPGA's replay memory: a packet must stay resident until
    a (cumulative) ACK covers it, and the buffer size bounds how much
    traffic can be in flight.  Admission is gated by the owning
    transport (a counting semaphore in the system layer), so ``add``
    overflowing indicates a protocol bug, not backpressure.

    A min-heap of added seqs lets a cumulative ACK free its prefix in
    O(freed) heap pops instead of scanning every resident packet.
    Entries of seqs already freed by a selective :meth:`ack` stay in the
    heap and are skipped when popped; once the heap holds twice the
    capacity it is rebuilt from the resident seqs.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ProtocolError(f"retransmit buffer needs capacity >= 1, got {capacity}")
        self.capacity = capacity
        self._packets: Dict[int, Packet] = {}  # seq -> packet
        self._seqs: List[int] = []  # min-heap over added seqs, possibly stale
        self.high_water = 0

    def __len__(self) -> int:
        return len(self._packets)

    def add(self, packet: Packet) -> None:
        """Hold *packet* until acknowledged."""
        packets = self._packets
        resident = len(packets)
        if resident >= self.capacity:
            raise ProtocolError(
                f"retransmit buffer overflow (capacity {self.capacity}); "
                "admission gating is broken"
            )
        seqs = self._seqs
        if len(seqs) >= 2 * self.capacity:
            seqs[:] = sorted(packets)  # drop stale entries; sorted is a heap
        seq = packet.seq
        if seq not in packets:  # a resident seq already has its heap entry
            heapq.heappush(seqs, seq)
            if resident + 1 > self.high_water:
                self.high_water = resident + 1
        packets[seq] = packet

    def holds(self, seq: int) -> bool:
        """True while *seq* is resident (unacknowledged)."""
        return seq in self._packets

    def get(self, seq: int) -> Packet:
        """The buffered copy to replay for *seq*."""
        try:
            return self._packets[seq]
        except KeyError as exc:
            raise ProtocolError(f"seq {seq} not in retransmit buffer") from exc

    def ack(self, seq: int) -> None:
        """Drop *seq* after its own response arrived (idempotent)."""
        self._packets.pop(seq, None)

    def ack_cumulative(self, upto: int) -> int:
        """Free every buffered packet with ``seq <= upto``; returns count."""
        seqs = self._seqs
        packets = self._packets
        freed = 0
        while seqs and seqs[0] <= upto:
            if packets.pop(heapq.heappop(seqs), None) is not None:
                freed += 1
        return freed


class LenderIngress:
    """Receiver-side state machine at the lender NIC.

    Verifies integrity of the delivered bytes, suppresses duplicates,
    and tracks the cumulative ACK that responses piggyback back to the
    sender.  ``selective_repeat`` switches the delivery discipline; see
    the module docstring.
    """

    def __init__(self, selective_repeat: bool, stats: Optional[TransportStats] = None) -> None:
        self.selective_repeat = selective_repeat
        self.stats = stats if stats is not None else TransportStats()
        self.cum_ack = 0  # highest contiguously delivered seq
        self._buffered: Set[int] = set()  # out-of-order seqs held (SR only)
        self.delivered = 0

    def verify(self, delivery: Delivery) -> Packet:
        """Integrity-check a delivery; returns the delivered header.

        Header bit errors surface through the wire CRC: a struck header
        is decoded, and :meth:`Packet.decode` raises
        :class:`~repro.errors.ChecksumError` (or
        :class:`~repro.errors.ProtocolError` for a mangled magic).  An
        unstruck header decodes to the sender's own fields, so the
        sent packet is returned as is.  Payload bit errors are caught
        by the payload integrity check and raise
        :class:`~repro.errors.LinkCorruption`.  Either way the packet
        must not be delivered silently.
        """
        packet = delivery.packet
        if delivery.struck_header is not None:
            packet = Packet.decode(delivery.struck_header)
        if delivery.payload_corrupted:
            raise LinkCorruption(
                f"payload integrity check failed for seq {packet.seq}"
            )
        return packet

    def accept(self, seq: int) -> tuple[bool, bool]:
        """Classify an intact arrival: ``(fresh, respond)``.

        ``fresh``
            First delivery of this seq — execute the memory operation.
        ``respond``
            Send a response/ACK.  Duplicates respond again (the
            original response may have died on the reverse path);
            go-back-N discards of out-of-order arrivals do not.
        """
        if self.selective_repeat:
            if seq <= self.cum_ack or seq in self._buffered:
                self.stats.dup_suppressed += 1
                return False, True
            self._buffered.add(seq)
            self._advance()
            self.delivered += 1
            return True, True
        # Go-back-N: strict in-order delivery.
        if seq == self.cum_ack + 1:
            self.cum_ack = seq
            self.delivered += 1
            return True, True
        if seq <= self.cum_ack:
            self.stats.dup_suppressed += 1
            return False, True
        self.stats.discarded_out_of_order += 1
        return False, False

    def _advance(self) -> None:
        while (self.cum_ack + 1) in self._buffered:
            self.cum_ack += 1
            self._buffered.discard(self.cum_ack)


class ReliableTransport:
    """Sender-side ARQ bookkeeping shared by all in-flight transactions.

    One instance per borrower NIC.  Holds the retransmit buffer and the
    timer policy (initial RTO, exponential backoff, retry budget); the
    per-transaction driving loop lives in the system layer because only
    it can charge simulated time.
    """

    def __init__(self, config: TransportConfig, initial_rto: Duration) -> None:
        if initial_rto <= 0:
            raise ProtocolError(f"initial RTO must be positive, got {initial_rto}")
        self.config = config
        self.initial_rto = initial_rto
        self.stats = TransportStats()
        self.buffer = RetransmitBuffer(config.retransmit_buffer)
        self.receiver = LenderIngress(config.selective_repeat, self.stats)

    # ------------------------------------------------------------------
    # Timer policy
    # ------------------------------------------------------------------
    def eligible_for_budget(self, seq: int) -> bool:
        """Whether a retransmission of *seq* burns the retry budget.

        The budget models "how many times the NIC replays before
        declaring the link dead", so only *genuine* link failures count.
        Under go-back-N a single gap at the window head forces every
        later in-flight seq to be replayed as part of the window replay
        — those copies were discarded because of ordering, not because
        the link ate them, and a shared hardware GBN sender would not
        have timed them individually.  Only the gap itself
        (``seq <= cum_ack + 1``, which also covers delivered packets
        whose responses died) is charged.  Selective repeat has no
        window replay, so every retransmission is charged.
        """
        if self.config.selective_repeat:
            return True
        return seq <= self.receiver.cum_ack + 1

    def free_replay(self) -> None:
        """Account an uncharged (window-replay) retransmission."""
        self.stats.retransmissions += 1

    def next_rto(self, rto: Duration) -> Duration:
        """Back the timer off exponentially, capped at ``max_rto``."""
        grown = int(rto * self.config.backoff)
        return min(grown, self.config.max_rto)

    def attempt_deadline(
        self, start: Time, rto: Duration, txn_deadline: Optional[Time] = None
    ) -> Time:
        """Expiry of one attempt's retransmission timer.

        *start* is where the timer arms — the gate grant (hardware
        timer, the default) or the attempt issue when
        ``timer_from_send`` models a software ARQ whose RTO includes
        local queueing.  The expiry is clamped to the transaction's
        absolute deadline (when the overload layer set one) via the
        shared :func:`~repro.core.overload.deadline.clamp_wake`
        helper: a timer must never sleep past the point the whole
        transaction is due to be abandoned.
        """
        return clamp_wake(start + rto, txn_deadline)

    def charge_retry(
        self,
        packet: Packet,
        attempt: int,
        now: Time,
        txn_deadline: Optional[Time] = None,
        attempts=(),
    ) -> None:
        """Account one more attempt; raises when the budget is spent.

        *attempt* counts retransmissions (0 = the original send), so a
        budget of N allows N retransmissions = N+1 copies on the wire.
        The remaining transaction budget is checked *before* the
        retransmission is queued (fail fast on doomed work), and the
        per-attempt history travels on the raised exception.
        """
        check_deadline(txn_deadline, now, what=f"seq {packet.seq}")
        if attempt > self.config.max_retries:
            self.stats.exhausted += 1
            self.buffer.ack(packet.seq)  # give the slot up
            raise RetryExhausted(
                f"seq {packet.seq} unacknowledged after "
                f"{self.config.max_retries} retransmission(s)",
                attempts=attempts,
                gave_up_at=now,
            )
        self.stats.retransmissions += 1

    # ------------------------------------------------------------------
    # Completion bookkeeping
    # ------------------------------------------------------------------
    def on_response(self, packet: Packet, cum_ack: int) -> None:
        """A response for *packet* was accepted at the borrower."""
        self.stats.acks += 1
        self.buffer.ack(packet.seq)
        if cum_ack:
            self.buffer.ack_cumulative(cum_ack)
