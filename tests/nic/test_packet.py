"""Unit tests for packet encapsulation and integrity."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ChecksumError, ProtocolError
from repro.nic.packet import HEADER_BYTES, Packet, PacketKind


def make(kind=PacketKind.READ_REQ, **kw):
    defaults = dict(src=0, dst=1, seq=7, addr=0x1234, size=128)
    defaults.update(kw)
    return Packet(kind=kind, **defaults)


class TestWireSizes:
    def test_header_is_32_bytes(self):
        assert HEADER_BYTES == 32

    def test_read_request_carries_no_data(self):
        assert make(PacketKind.READ_REQ).wire_bytes == HEADER_BYTES

    def test_read_response_carries_line(self):
        assert make(PacketKind.READ_RESP).wire_bytes == HEADER_BYTES + 128

    def test_write_request_carries_line(self):
        assert make(PacketKind.WRITE_REQ).wire_bytes == HEADER_BYTES + 128

    def test_write_ack_header_only(self):
        assert make(PacketKind.WRITE_ACK).wire_bytes == HEADER_BYTES

    def test_probe_header_only(self):
        assert make(PacketKind.PROBE, size=0).wire_bytes == HEADER_BYTES


class TestResponses:
    @pytest.mark.parametrize(
        "req,resp",
        [
            (PacketKind.READ_REQ, PacketKind.READ_RESP),
            (PacketKind.WRITE_REQ, PacketKind.WRITE_ACK),
            (PacketKind.PROBE, PacketKind.PROBE_ACK),
        ],
    )
    def test_response_kinds(self, req, resp):
        assert make(req).response_kind() is resp

    def test_response_swaps_endpoints_keeps_seq(self):
        resp = make(PacketKind.READ_REQ, src=3, dst=9, seq=42).make_response()
        assert (resp.src, resp.dst, resp.seq) == (9, 3, 42)

    @pytest.mark.parametrize(
        "req", [PacketKind.READ_REQ, PacketKind.WRITE_REQ, PacketKind.PROBE]
    )
    def test_response_wire_bytes_match_the_response(self, req):
        request = make(req)
        assert request.response_wire_bytes == request.make_response().wire_bytes

    @pytest.mark.parametrize(
        "req", [PacketKind.READ_REQ, PacketKind.WRITE_REQ, PacketKind.PROBE]
    )
    def test_arq_reply_is_the_response_on_the_wire(self, req):
        from repro.node.reliable import _Reply

        request = make(req, seq=99, addr=0xBEEF)
        response = request.make_response()
        reply = _Reply(request, cum_ack=42)
        assert reply.wire_bytes == response.wire_bytes
        assert reply.encode() == response.encode()

    def test_response_of_response_raises(self):
        with pytest.raises(ProtocolError):
            make(PacketKind.READ_RESP).response_kind()


class TestEncodeDecode:
    def test_roundtrip(self):
        pkt = make(PacketKind.WRITE_REQ, addr=0xDEADBEEF, seq=123456789)
        decoded = Packet.decode(pkt.encode())
        assert decoded.kind is pkt.kind
        assert (decoded.src, decoded.dst, decoded.seq) == (pkt.src, pkt.dst, pkt.seq)
        assert decoded.addr == pkt.addr and decoded.size == pkt.size

    def test_short_packet(self):
        with pytest.raises(ProtocolError):
            Packet.decode(b"\x00" * 10)

    def test_bad_magic(self):
        data = bytearray(make().encode())
        data[0] ^= 0xFF
        with pytest.raises(ProtocolError):
            Packet.decode(bytes(data))

    def test_corruption_detected_by_crc(self):
        data = bytearray(make().encode())
        data[10] ^= 0x01  # flip a bit in the seq field
        with pytest.raises(ChecksumError):
            Packet.decode(bytes(data))

    @given(
        kind=st.sampled_from(list(PacketKind)),
        src=st.integers(0, 65535),
        dst=st.integers(0, 65535),
        seq=st.integers(0, 2**64 - 1),
        addr=st.integers(0, 2**64 - 1),
        size=st.integers(0, 2**32 - 1),
    )
    def test_property_roundtrip(self, kind, src, dst, seq, addr, size):
        pkt = Packet(kind=kind, src=src, dst=dst, seq=seq, addr=addr, size=size)
        assert Packet.decode(pkt.encode()) == Packet(
            kind=kind, src=src, dst=dst, seq=seq, addr=addr, size=size
        )

    @given(data=st.binary(min_size=HEADER_BYTES, max_size=HEADER_BYTES))
    def test_property_random_bytes_never_silently_accepted(self, data):
        """Random headers either fail magic/CRC/kind checks or decode."""
        try:
            Packet.decode(data)
        except ProtocolError:
            pass  # includes ChecksumError
