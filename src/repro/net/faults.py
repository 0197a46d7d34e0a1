"""Lossy-link fault injection: per-packet loss, corruption, jitter, dup.

The paper injects *delay* as the common manifestation of network
trouble; this module injects the underlying link faults directly so
the reliable transport (:mod:`repro.nic.transport`) has something to
recover from.  A :class:`FaultModel` decides, per packet, whether the
packet is lost, bit-corrupted, delivered late (reordering jitter), or
duplicated; a :class:`FaultyChannel` applies those decisions on top of
a :class:`~repro.net.link.SimplexChannel`'s serialization timing.

Determinism
-----------
Every decision draws from its own named
:class:`~repro.sim.rng.RngStreams` child (``<prefix>.loss``,
``<prefix>.corrupt``, ...), so enabling one fault type never perturbs
the draws of another, and identical seeds reproduce identical fault
sequences (and therefore identical retransmission counts).  When the
:class:`~repro.config.FaultConfig` is the null model (all rates zero)
no stream is ever consulted — the channel is byte-for-byte the clean
``SimplexChannel`` path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import FaultConfig
from repro.net.link import SimplexChannel
from repro.nic.packet import HEADER_BYTES, Packet
from repro.sim import RngStreams
from repro.units import Time

__all__ = ["Delivery", "GilbertElliott", "FaultModel", "FaultyChannel", "HopLossProcess"]


@dataclass
class Delivery:
    """Outcome of one packet traversal through a faulty channel.

    ``arrival`` is ``None`` when the packet was dropped;
    ``payload_corrupted`` marks a bit error in the data payload, caught
    by the receiver's payload integrity check instead of the header
    CRC.  ``duplicate_arrival`` is the arrival time of a spurious
    second copy, when duplication struck.

    The header is encoded only when a fault strikes one of its bits:
    ``struck_header`` then holds the damaged bytes, so
    :meth:`~repro.nic.packet.Packet.decode` raises
    :class:`~repro.errors.ChecksumError` (or
    :class:`~repro.errors.ProtocolError` for a mangled magic) at
    ingress.  :attr:`wire` reads the bytes as they arrive either way.
    """

    packet: Packet
    arrival: Optional[Time]
    payload_corrupted: bool = False
    duplicate_arrival: Optional[Time] = None
    struck_header: Optional[bytes] = None

    @property
    def wire(self) -> bytes:
        """The header bytes as they arrive (empty when dropped)."""
        if self.struck_header is not None:
            return self.struck_header
        return b"" if self.arrival is None else self.packet.encode()

    @property
    def header_corrupted(self) -> bool:
        """True if a header bit was struck (the CRC check will fail)."""
        return self.struck_header is not None

    @property
    def delivered(self) -> bool:
        """True if at least one copy reaches the far end."""
        return self.arrival is not None

    @property
    def corrupted(self) -> bool:
        """True if the delivered bytes fail an integrity check."""
        return self.struck_header is not None or self.payload_corrupted


class GilbertElliott:
    """Two-state bursty-loss chain (good/bad), stepped once per packet.

    The classic Gilbert–Elliott model: per-packet transitions
    good→bad with probability ``p_good_to_bad`` and bad→good with
    ``p_bad_to_good``; the loss probability is state-dependent, which
    produces loss *bursts* (link repair windows, flapping transceivers)
    rather than i.i.d. drops.
    """

    __slots__ = ("config", "_rng", "bad", "transitions")

    def __init__(self, config: FaultConfig, rng) -> None:
        self.config = config
        self._rng = rng
        self.bad = False
        self.transitions = 0

    def step(self) -> float:
        """Advance one packet; returns the loss probability to apply."""
        cfg = self.config
        flip = float(self._rng.random())
        if self.bad:
            if flip < cfg.p_bad_to_good:
                self.bad = False
                self.transitions += 1
        else:
            if flip < cfg.p_good_to_bad:
                self.bad = True
                self.transitions += 1
        return cfg.loss_rate_bad if self.bad else cfg.loss_rate


class FaultModel:
    """Per-packet fault decisions for one channel direction.

    Parameters
    ----------
    config:
        Fault rates (the null model short-circuits every draw).
    rng:
        Stream factory; child streams are named
        ``<config.seed_stream>.{loss,corrupt,reorder,dup,burst}``.
    active:
        Initial arming state.  The resilience sweeps attach cleanly
        with faults disarmed and call :meth:`arm` before the measured
        burst, so the handshake is not part of the chaos window.
    """

    def __init__(self, config: FaultConfig, rng: RngStreams, active: bool = True) -> None:
        self.config = config
        self.active = active
        self.enabled = config.enabled
        prefix = config.seed_stream
        if self.enabled:
            self._loss = rng.get(f"{prefix}.loss")
            self._corrupt = rng.get(f"{prefix}.corrupt")
            self._reorder = rng.get(f"{prefix}.reorder")
            self._dup = rng.get(f"{prefix}.dup")
            self._ge = GilbertElliott(config, rng.get(f"{prefix}.burst")) if config.burst else None
        else:
            self._loss = self._corrupt = self._reorder = self._dup = None
            self._ge = None
        # Outcome counters (read by obs probes and the sweeps).
        self.packets = 0
        self.lost = 0
        self.corrupted = 0
        self.reordered = 0
        self.duplicated = 0

    def arm(self) -> None:
        """Start injecting faults (no-op on the null model)."""
        self.active = True

    def disarm(self) -> None:
        """Stop injecting faults; the channel becomes clean again."""
        self.active = False

    # ------------------------------------------------------------------
    def apply(self, packet: Packet, arrival: Time) -> Delivery:
        """Decide this packet's fate; *arrival* is the clean arrival time."""
        self.packets += 1
        if not (self.enabled and self.active):
            return Delivery(packet, arrival)
        cfg = self.config
        loss_p = self._ge.step() if self._ge is not None else cfg.loss_rate
        if loss_p > 0 and float(self._loss.random()) < loss_p:
            self.lost += 1
            return Delivery(packet, None)
        struck_header: Optional[bytes] = None
        payload_corrupted = False
        if cfg.corrupt_rate > 0 and float(self._corrupt.random()) < cfg.corrupt_rate:
            self.corrupted += 1
            # The struck bit lands in header or payload in proportion
            # to their on-wire sizes; header hits break the CRC.
            bit = int(self._corrupt.integers(0, packet.wire_bytes * 8))
            if bit < HEADER_BYTES * 8:
                struck_header = _flip_bit(packet.encode(), bit)
            else:
                payload_corrupted = True
        if cfg.reorder_rate > 0 and float(self._reorder.random()) < cfg.reorder_rate:
            self.reordered += 1
            # Late delivery: the packet overtakes nothing but is
            # overtaken — modeled as bounded extra queueing drawn
            # uniformly in (0, reorder_jitter].
            extra = 1 + int(self._reorder.integers(0, max(1, int(cfg.reorder_jitter))))
            arrival = arrival + extra
        duplicate_arrival: Optional[Time] = None
        if cfg.duplicate_rate > 0 and float(self._dup.random()) < cfg.duplicate_rate:
            self.duplicated += 1
            extra = 1 + int(self._dup.integers(0, max(1, int(cfg.reorder_jitter))))
            duplicate_arrival = arrival + extra
        return Delivery(
            packet=packet,
            arrival=arrival,
            payload_corrupted=payload_corrupted,
            duplicate_arrival=duplicate_arrival,
            struck_header=struck_header,
        )

    def summary(self) -> dict:
        """Counter snapshot (sweep reporting)."""
        return {
            "packets": self.packets,
            "lost": self.lost,
            "corrupted": self.corrupted,
            "reordered": self.reordered,
            "duplicated": self.duplicated,
        }


def _flip_bit(data: bytes, bit: int) -> bytes:
    """Return *data* with one bit inverted."""
    buf = bytearray(data)
    buf[bit // 8] ^= 1 << (bit % 8)
    return bytes(buf)


class FaultyChannel:
    """A :class:`SimplexChannel` whose deliveries pass a fault model.

    Serialization timing is unchanged — a dropped packet still occupied
    the transmitter for its wire time (the bits left the NIC; they died
    on the way) — only the *delivery* outcome is filtered, which is
    what a real lossy cable does to a store-and-forward receiver.
    """

    def __init__(self, channel: SimplexChannel, faults: FaultModel) -> None:
        self.channel = channel
        self.faults = faults
        self.name = channel.name

    def transmit_packet(self, packet: Packet, at: Time) -> Delivery:
        """Send *packet* entering the wire at *at*; returns its fate."""
        arrival = self.channel.transmit(packet.wire_bytes, at)
        return self.faults.apply(packet, arrival)

    # Pass-throughs so a FaultyChannel drops into SimplexChannel slots.
    def transmit(self, nbytes: int, at: Time) -> Time:
        """Clean timing path (no fault decision; used by probes)."""
        return self.channel.transmit(nbytes, at)

    def serialization_time(self, nbytes: int):
        """Pure wire time of *nbytes* (delegates)."""
        return self.channel.serialization_time(nbytes)

    @property
    def bytes_sent(self) -> int:
        """Total bytes serialized (including doomed packets)."""
        return self.channel.bytes_sent

    def busy_until(self) -> Time:
        """When the transmitter next goes idle."""
        return self.channel.busy_until()

    def utilization(self, now: Time) -> float:
        """Transmit-side utilization up to *now*."""
        return self.channel.utilization(now)


class HopLossProcess:
    """Per-traversal loss fates for one directed shared-fabric hop.

    The full :class:`FaultModel` mangles wire bytes and forges
    duplicates — machinery the fabric's store-and-forward hops don't
    need (there is no per-hop ARQ header to corrupt).  This is the
    minimal sub-model a :class:`~repro.net.fabric.Fabric` edge uses:
    one named stream per directed edge deciding, per frame, whether
    the hop drops it (i.i.d. or bursty Gilbert–Elliott), leaving
    recovery to the fabric's hop-level retransmit loop.  One stream
    serves both the burst-chain transitions and the loss draws —
    decisions on a hop are strictly sequential, so the sequence is a
    pure function of the stream name and the root seed.
    """

    __slots__ = ("config", "_rng", "_burst", "frames", "drops")

    def __init__(self, config: FaultConfig, rng) -> None:
        self.config = config
        self._rng = rng
        self._burst = GilbertElliott(config, rng) if config.burst else None
        self.frames = 0
        self.drops = 0

    def lost(self) -> bool:
        """Fate of one frame traversal; advances the chain."""
        cfg = self.config
        self.frames += 1
        if cfg.loss_rate <= 0 and self._burst is None:
            return False
        p = self._burst.step() if self._burst is not None else cfg.loss_rate
        if p > 0 and float(self._rng.random()) < p:
            self.drops += 1
            return True
        return False
