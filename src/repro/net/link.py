"""Point-to-point network link.

The paper's prototype replaces the datacenter network with "a 100 Gb/s
point-to-point connection over a copper cable".  :class:`DuplexLink`
models it as two independent simplex channels (full duplex), each a
FIFO serialization server plus fixed propagation delay.
"""

from __future__ import annotations

from typing import Tuple

from repro.config import LinkConfig
from repro.mem.bus import BandwidthServer
from repro.units import Duration, Time

__all__ = ["SimplexChannel", "DuplexLink"]


class SimplexChannel:
    """One direction of a link: serialization at line rate + propagation."""

    def __init__(self, config: LinkConfig, name: str = "chan") -> None:
        self.config = config
        self.name = name
        self._server = BandwidthServer(config.bandwidth_bytes_per_s, name=name)

    def transmit(self, nbytes: int, at: Time) -> Time:
        """Send *nbytes* entering the channel at *at*; returns arrival time.

        Store-and-forward: arrival is when the last bit lands, i.e.
        serialization completion plus propagation.
        """
        _, eot = self._server.reserve(nbytes, at)
        return eot + self.config.propagation_delay

    def transmit_blamed(self, nbytes: int, at: Time) -> Tuple[Time, Time]:
        """``(transmit(...), busy_until before it)``: the gap to *at* is queueing."""
        busy = self._server.busy_until()
        return self.transmit(nbytes, at), busy

    def serialization_time(self, nbytes: int) -> Duration:
        """Pure wire time of *nbytes* (no queueing, no propagation)."""
        return self._server.service_time(nbytes)

    @property
    def bytes_sent(self) -> int:
        """Total bytes serialized on this direction."""
        return self._server.bytes_served

    def busy_until(self) -> Time:
        """When the transmitter next goes idle."""
        return self._server.busy_until()

    def utilization(self, now: Time) -> float:
        """Transmit-side utilization up to *now*."""
        return self._server.utilization(now)


class DuplexLink:
    """Full-duplex link: independent forward and reverse channels.

    ``forward`` carries borrower→lender traffic (requests), ``reverse``
    lender→borrower (responses); the two do not contend, as on a real
    bidirectional cable.
    """

    def __init__(self, config: LinkConfig, name: str = "link") -> None:
        self.config = config
        self.name = name
        self.forward = SimplexChannel(config, name=f"{name}.fwd")
        self.reverse = SimplexChannel(config, name=f"{name}.rev")

    @property
    def bytes_sent(self) -> int:
        """Total bytes over both directions."""
        return self.forward.bytes_sent + self.reverse.bytes_sent
