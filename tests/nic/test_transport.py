"""Unit tests for the reliable NIC transport state machines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FaultConfig, TransportConfig
from repro.errors import (
    ChecksumError,
    LinkCorruption,
    ProtocolError,
    RetryExhausted,
)
from repro.net.faults import Delivery, FaultModel
from repro.nic import LenderIngress, ReliableTransport, RetransmitBuffer, TransportStats
from repro.nic.packet import Packet, PacketKind
from repro.sim import RngStreams


def packet(seq=1, kind=PacketKind.READ_REQ, size=128):
    return Packet(kind=kind, src=0, dst=1, seq=seq, addr=0x1000, size=size)


def clean_delivery(pkt, arrival=100):
    return Delivery(packet=pkt, arrival=arrival)


class TestRetransmitBuffer:
    def test_add_get_ack(self):
        buf = RetransmitBuffer(4)
        p = packet(seq=7)
        buf.add(p)
        assert buf.holds(7) and buf.get(7) is p and len(buf) == 1
        buf.ack(7)
        assert not buf.holds(7) and len(buf) == 0

    def test_ack_idempotent(self):
        buf = RetransmitBuffer(4)
        buf.add(packet(seq=1))
        buf.ack(1)
        buf.ack(1)  # no error

    def test_get_missing_raises(self):
        with pytest.raises(ProtocolError):
            RetransmitBuffer(4).get(99)

    def test_overflow_raises(self):
        buf = RetransmitBuffer(2)
        buf.add(packet(seq=1))
        buf.add(packet(seq=2))
        with pytest.raises(ProtocolError):
            buf.add(packet(seq=3))

    def test_cumulative_ack_frees_prefix(self):
        buf = RetransmitBuffer(8)
        for s in (1, 2, 3, 5):
            buf.add(packet(seq=s))
        assert buf.ack_cumulative(3) == 3
        assert not buf.holds(2) and buf.holds(5)

    def test_selective_acks_behind_a_held_seq(self):
        # Seq 1 stays resident (its cumulative ACK never comes) while
        # later seqs are acked one by one, as after a send that never
        # reached the lender: the buffer keeps a bounded index and a
        # cumulative ACK still finds seq 1.
        buf = RetransmitBuffer(2)
        buf.add(packet(seq=1))
        for s in range(2, 50):
            buf.add(packet(seq=s))
            buf.ack(s)
        assert len(buf._seqs) <= 2 * buf.capacity
        assert buf.ack_cumulative(49) == 1
        assert len(buf) == 0

    def test_high_water(self):
        buf = RetransmitBuffer(8)
        for s in range(1, 5):
            buf.add(packet(seq=s))
        buf.ack_cumulative(4)
        assert buf.high_water == 4

    def test_capacity_validation(self):
        with pytest.raises(ProtocolError):
            RetransmitBuffer(0)


class TestLenderIngressVerify:
    def test_clean_delivery_decodes(self):
        ingress = LenderIngress(selective_repeat=False)
        p = packet(seq=3)
        assert ingress.verify(clean_delivery(p)).seq == 3

    def test_header_corruption_refused(self):
        ingress = LenderIngress(selective_repeat=False)
        model = FaultModel(FaultConfig(corrupt_rate=1.0), RngStreams(3))
        d = model.apply(packet(kind=PacketKind.PROBE, size=0), arrival=0)
        assert d.header_corrupted
        # ChecksumError when the flip lands in a CRC-covered field,
        # plain ProtocolError when it mangles the magic.
        with pytest.raises(ProtocolError):
            ingress.verify(d)

    def test_payload_corruption_raises_link_corruption(self):
        ingress = LenderIngress(selective_repeat=False)
        p = packet()
        d = Delivery(packet=p, arrival=0, payload_corrupted=True)
        with pytest.raises(LinkCorruption):
            ingress.verify(d)


class TestGoBackNReceiver:
    def test_in_order_delivery(self):
        ingress = LenderIngress(selective_repeat=False)
        assert ingress.accept(1) == (True, True)
        assert ingress.accept(2) == (True, True)
        assert ingress.cum_ack == 2 and ingress.delivered == 2

    def test_duplicate_responds_again(self):
        ingress = LenderIngress(selective_repeat=False)
        ingress.accept(1)
        assert ingress.accept(1) == (False, True)
        assert ingress.stats.dup_suppressed == 1

    def test_out_of_order_discarded_silently(self):
        ingress = LenderIngress(selective_repeat=False)
        ingress.accept(1)
        assert ingress.accept(3) == (False, False)
        assert ingress.stats.discarded_out_of_order == 1
        assert ingress.cum_ack == 1
        # The gap fill is then accepted, but 3 must be resent.
        assert ingress.accept(2) == (True, True)
        assert ingress.accept(3) == (True, True)
        assert ingress.cum_ack == 3


class TestSelectiveRepeatReceiver:
    def test_out_of_order_buffered(self):
        ingress = LenderIngress(selective_repeat=True)
        assert ingress.accept(2) == (True, True)  # buffered, responds
        assert ingress.cum_ack == 0
        assert ingress.accept(1) == (True, True)  # fills the gap
        assert ingress.cum_ack == 2

    def test_buffered_duplicate_suppressed(self):
        ingress = LenderIngress(selective_repeat=True)
        ingress.accept(2)
        assert ingress.accept(2) == (False, True)
        assert ingress.stats.dup_suppressed == 1

    def test_old_duplicate_suppressed(self):
        ingress = LenderIngress(selective_repeat=True)
        ingress.accept(1)
        assert ingress.accept(1) == (False, True)


class TestReliableTransport:
    def make(self, **kw):
        return ReliableTransport(TransportConfig(**kw), initial_rto=1_000_000)

    def test_invalid_rto(self):
        with pytest.raises(ProtocolError):
            ReliableTransport(TransportConfig(), initial_rto=0)

    def test_backoff_capped(self):
        t = self.make(backoff=2.0, max_rto=3_000_000)
        assert t.next_rto(1_000_000) == 2_000_000
        assert t.next_rto(2_000_000) == 3_000_000  # capped

    def test_retry_budget_exhaustion(self):
        t = self.make(max_retries=2)
        p = packet(seq=5)
        t.buffer.add(p)
        t.charge_retry(p, attempt=1, now=0)
        t.charge_retry(p, attempt=2, now=0)
        with pytest.raises(RetryExhausted):
            t.charge_retry(p, attempt=3, now=0)
        assert t.stats.retransmissions == 2
        assert t.stats.exhausted == 1
        assert not t.buffer.holds(5)  # slot given up

    def test_on_response_frees_cumulatively(self):
        t = self.make()
        for s in (1, 2, 3):
            t.buffer.add(packet(seq=s))
        t.on_response(packet(seq=3), cum_ack=2)
        assert t.stats.acks == 1
        assert not t.buffer.holds(1) and not t.buffer.holds(2) and not t.buffer.holds(3)

    def test_stats_as_dict_roundtrip(self):
        stats = TransportStats(sent=3, retransmissions=1)
        d = stats.as_dict()
        assert d["sent"] == 3 and d["retransmissions"] == 1
        assert set(d) == {
            "sent",
            "retransmissions",
            "timeouts",
            "nacks",
            "acks",
            "dup_suppressed",
            "corrupt_drops",
            "discarded_out_of_order",
            "exhausted",
        }


class TestNackPacket:
    def test_make_nack_swaps_endpoints(self):
        p = packet(seq=9)
        n = p.make_nack()
        assert n.kind is PacketKind.NACK
        assert (n.src, n.dst) == (p.dst, p.src)
        assert n.seq == 9 and n.size == 0 and not n.carries_data


class _ScanBuffer:
    """Reference retransmit buffer: cumulative ACKs scan every resident seq."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.packets = {}
        self.high_water = 0

    def add(self, seq):
        if len(self.packets) >= self.capacity:
            raise ProtocolError("overflow")
        self.packets[seq] = packet(seq=seq)
        self.high_water = max(self.high_water, len(self.packets))

    def ack(self, seq):
        self.packets.pop(seq, None)

    def ack_cumulative(self, upto):
        stale = [seq for seq in self.packets if seq <= upto]
        for seq in stale:
            del self.packets[seq]
        return len(stale)


_SEQS = st.integers(min_value=1, max_value=12)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _SEQS),
        st.tuples(st.just("ack"), _SEQS),
        st.tuples(st.just("ack_cumulative"), st.integers(min_value=0, max_value=13)),
    ),
    max_size=120,
)


@settings(deadline=None, max_examples=300)
@given(capacity=st.integers(min_value=1, max_value=8), ops=_OPS)
def test_property_buffer_matches_scan_reference(capacity, ops):
    """Adds in any seq order (the replay path re-adds seqs below the
    highest one), selective and cumulative ACKs: the heap-backed buffer
    frees exactly what a scan over the resident seqs frees, also across
    the rebuilds that drop entries of selectively acked seqs."""
    buf, ref = RetransmitBuffer(capacity), _ScanBuffer(capacity)
    for op, seq in ops:
        if op == "add":
            if len(ref.packets) >= capacity:
                with pytest.raises(ProtocolError):
                    buf.add(packet(seq=seq))
                continue
            ref.add(seq)
            buf.add(packet(seq=seq))
        elif op == "ack":
            ref.ack(seq)
            buf.ack(seq)
        else:
            assert buf.ack_cumulative(seq) == ref.ack_cumulative(seq)
        assert len(buf) == len(ref.packets)
        assert buf.high_water == ref.high_water
        for s in range(1, 14):
            assert buf.holds(s) == (s in ref.packets)
