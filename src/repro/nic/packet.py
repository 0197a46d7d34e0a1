"""Network packet encapsulation of cache-line transactions.

The disaggregated-memory NIC "transforms the cache miss into a network
packet by encapsulating with a packet header for network transmission
(such as the destination network address, checksum, etc.)" (section
II-A).  :class:`Packet` models that encapsulation, including a real
wire encoding with a CRC32 integrity check so the packetizer path can
be tested end-to-end.
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass, field

from repro.errors import ChecksumError, ProtocolError

__all__ = ["PacketKind", "Packet", "HEADER_BYTES"]


class PacketKind(enum.IntEnum):
    """Transaction types carried between borrower and lender NICs."""

    READ_REQ = 0
    READ_RESP = 1
    WRITE_REQ = 2
    WRITE_ACK = 3
    PROBE = 4  # attach/detection handshake
    PROBE_ACK = 5
    NACK = 6  # integrity failure at ingress: resend this seq


#: Request kind -> the kind that answers it.
_RESPONSE_KIND = {
    PacketKind.READ_REQ: PacketKind.READ_RESP,
    PacketKind.WRITE_REQ: PacketKind.WRITE_ACK,
    PacketKind.PROBE: PacketKind.PROBE_ACK,
}
#: Kinds whose cache-line payload rides on the wire.
_DATA_KINDS = frozenset({PacketKind.WRITE_REQ, PacketKind.READ_RESP})

# Wire header: magic(2) kind(1) flags(1) src(2) dst(2) seq(8) addr(8)
# size(4) crc(4) = 32 bytes, matching LinkConfig.header_bytes.
_HEADER_STRUCT = struct.Struct(">HBBHHQQLL")
_MAGIC = 0x7F1A
HEADER_BYTES = _HEADER_STRUCT.size
assert HEADER_BYTES == 32


@dataclass
class Packet:
    """One encapsulated transaction.

    Attributes
    ----------
    kind:
        Transaction type.
    src, dst:
        Network node identifiers.
    seq:
        Per-source sequence number (matches responses to requests).
    addr:
        Borrower-side physical address of the cache line.
    size:
        Payload size in bytes (cache line for data-bearing packets).
    meta:
        Simulation-side metadata (issue timestamps, owner workload).
    """

    kind: PacketKind
    src: int
    dst: int
    seq: int
    addr: int
    size: int
    meta: dict = field(default_factory=dict)

    @property
    def carries_data(self) -> bool:
        """True if the payload rides on the wire (write req / read resp)."""
        return self.kind in _DATA_KINDS

    @property
    def wire_bytes(self) -> int:
        """Total on-wire size: header plus payload when data is carried."""
        return HEADER_BYTES + (self.size if self.kind in _DATA_KINDS else 0)

    @property
    def response_wire_bytes(self) -> int:
        """On-wire size of the response to this request."""
        carries = _RESPONSE_KIND.get(self.kind) in _DATA_KINDS
        return HEADER_BYTES + (self.size if carries else 0)

    def response_kind(self) -> PacketKind:
        """The packet kind that answers this request."""
        try:
            return _RESPONSE_KIND[self.kind]
        except KeyError:
            raise ProtocolError(f"{self.kind.name} is not a request kind") from None

    def make_response(self) -> "Packet":
        """Build the response packet for this request (src/dst swapped)."""
        return Packet(
            kind=self.response_kind(),
            src=self.dst,
            dst=self.src,
            seq=self.seq,
            addr=self.addr,
            size=self.size,
            meta=dict(self.meta),
        )

    def make_nack(self) -> "Packet":
        """Build the NACK answering a corrupted copy of this request.

        Header-only; echoes the sequence number so the sender can
        retransmit immediately instead of waiting out its timer.
        """
        return Packet(
            kind=PacketKind.NACK,
            src=self.dst,
            dst=self.src,
            seq=self.seq,
            addr=self.addr,
            size=0,
        )

    # ------------------------------------------------------------------
    # Wire encoding.  The simulation carries the object itself and
    # charges `wire_bytes` for timing; the bytes are materialized only
    # when a fault strikes a header bit, and lender ingress then
    # decodes + CRC-verifies them (a clean header is the identity
    # round trip, so it is not re-run per packet).
    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        """Serialize the header with CRC32 over the protected fields."""
        body = _HEADER_STRUCT.pack(
            _MAGIC, int(self.kind), 0, self.src, self.dst, self.seq, self.addr, self.size, 0
        )
        crc = zlib.crc32(body[:-4])
        return body[:-4] + struct.pack(">L", crc)

    @classmethod
    def decode(cls, data: bytes) -> "Packet":
        """Parse and integrity-check a wire header."""
        if len(data) < HEADER_BYTES:
            raise ProtocolError(f"short packet: {len(data)} < {HEADER_BYTES} bytes")
        magic, kind, _flags, src, dst, seq, addr, size, crc = _HEADER_STRUCT.unpack(
            data[:HEADER_BYTES]
        )
        if magic != _MAGIC:
            raise ProtocolError(f"bad magic {magic:#x}")
        if zlib.crc32(data[: HEADER_BYTES - 4]) != crc:
            raise ChecksumError("header CRC mismatch")
        try:
            pkind = PacketKind(kind)
        except ValueError as exc:
            raise ProtocolError(f"unknown packet kind {kind}") from exc
        return cls(kind=pkind, src=src, dst=dst, seq=seq, addr=addr, size=size)
