"""Multi-node switched fabric (beyond-rack extension).

Connects several borrower/lender pairs through shared switches so that
the congestion scenarios the paper motivates (section II-B) can be
constructed: multiple tenants whose traffic shares output ports and
therefore sees variable, load-dependent latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

import networkx as nx

from repro.config import FaultConfig, LinkConfig
from repro.errors import ConfigError, ReproError
from repro.net.link import SimplexChannel
from repro.net.switch import Switch
from repro.units import Duration, Time

__all__ = ["Fabric"]

#: Hop-level retransmit budget before a frame is declared undeliverable.
#: Far above anything a sane loss rate reaches (p=0.5 gives ~1e-19).
MAX_HOP_ATTEMPTS = 64


@dataclass(frozen=True)
class _Edge:
    """One directed hop: either an end-host link or a switch port."""

    channel: SimplexChannel


class Fabric:
    """A directed network of nodes and switches.

    Nodes and switches are vertices; ``connect`` adds a bidirectional
    pair of serialization channels.  ``transmit`` walks the shortest
    path (by hop count) and reserves each hop in sequence —
    store-and-forward with per-hop queueing, which is where shared-port
    congestion appears.

    Parameters
    ----------
    link_config:
        Serialization/propagation parameters of every hop.
    fault:
        Optional per-hop loss model (loss rate or Gilbert–Elliott
        burst).  Each directed edge gets its own
        :class:`~repro.net.faults.HopLossProcess` drawing from a stream
        named after the edge, and ``transmit`` recovers drops with a
        hop-level retransmit (detect at would-be arrival, NACK one
        propagation delay back, re-serialize).  ``None`` — or a
        disabled config — leaves the clean path byte-identical.
    rng:
        :class:`~repro.sim.rng.RngStreams` factory for the per-edge
        loss streams; required when *fault* is enabled.
    """

    def __init__(
        self,
        link_config: LinkConfig,
        fault: Optional[FaultConfig] = None,
        rng=None,
    ) -> None:
        self.link_config = link_config
        self._graph = nx.DiGraph()
        self._switches: Dict[Hashable, Switch] = {}
        if fault is not None and fault.enabled and rng is None:
            raise ConfigError("a faulty fabric needs an rng stream factory")
        self._fault = fault if fault is not None and fault.enabled else None
        self._rng = rng
        self._loss: Dict[Tuple[Hashable, Hashable], "HopLossProcess"] = {}
        self.retransmissions = 0

    def add_node(self, node: Hashable) -> None:
        """Register an end host."""
        self._graph.add_node(node, kind="host")

    def add_switch(self, switch_id: Hashable, port_rate_bytes_per_s: float | None = None) -> None:
        """Register a switch vertex."""
        rate = port_rate_bytes_per_s or self.link_config.bandwidth_bytes_per_s
        self._switches[switch_id] = Switch(rate, name=f"switch[{switch_id}]")
        self._graph.add_node(switch_id, kind="switch")

    def connect(self, a: Hashable, b: Hashable) -> None:
        """Add a full-duplex link between vertices *a* and *b*."""
        for u, v in ((a, b), (b, a)):
            if u not in self._graph or v not in self._graph:
                raise ConfigError(f"connect({a!r}, {b!r}): unknown vertex")
            channel = SimplexChannel(self.link_config, name=f"{u}->{v}")
            self._graph.add_edge(u, v, edge=_Edge(channel))
            if self._fault is not None:
                from repro.net.faults import HopLossProcess

                self._loss[(u, v)] = HopLossProcess(
                    self._fault, self._rng.get(f"fabric.{u}->{v}")
                )

    def path(self, src: Hashable, dst: Hashable) -> List[Hashable]:
        """Shortest path from *src* to *dst* (hop count)."""
        try:
            return nx.shortest_path(self._graph, src, dst)
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise ConfigError(f"no path {src!r} -> {dst!r}") from exc

    def transmit(self, nbytes: int, src: Hashable, dst: Hashable, at: Time) -> Time:
        """Send *nbytes* along the shortest path; returns arrival time.

        Each hop serializes on its channel; switch vertices add their
        forwarding latency via the *next* hop's reservation time.
        """
        return self.transmit_queued(nbytes, src, dst, at)[0]

    def transmit_queued(
        self, nbytes: int, src: Hashable, dst: Hashable, at: Time
    ) -> Tuple[Time, Duration]:
        """:meth:`transmit` plus the frame's queueing summed over hops
        (shared-port congestion; attribution's ``queue_wait``)."""
        vertices = self.path(src, dst)
        t = at
        queued = 0
        for u, v in zip(vertices, vertices[1:]):
            edge: _Edge = self._graph.edges[u, v]["edge"]
            if u in self._switches:
                t += self._switches[u].forwarding_latency
                self._switches[u].packets_forwarded += 1
            busy = edge.channel.busy_until()
            if busy > t:
                queued += busy - t
            loss = self._loss.get((u, v)) if self._loss else None
            if loss is None:
                t = edge.channel.transmit(nbytes, t)
                continue
            # Lossy hop: the frame occupies the wire either way; a drop
            # is detected at its would-be arrival and NACKed back one
            # propagation delay, then the hop re-serializes.
            for _attempt in range(MAX_HOP_ATTEMPTS):
                arrival = edge.channel.transmit(nbytes, t)
                if not loss.lost():
                    t = arrival
                    break
                self.retransmissions += 1
                t = arrival + self.link_config.propagation_delay
            else:
                raise ReproError(
                    f"fabric hop {u!r}->{v!r} dropped one frame "
                    f"{MAX_HOP_ATTEMPTS} times; loss model is implausible"
                )
        return t, queued

    def hop_count(self, src: Hashable, dst: Hashable) -> int:
        """Number of hops on the shortest path."""
        return len(self.path(src, dst)) - 1

    @property
    def lossy(self) -> bool:
        """True when hops drop frames (per-hop loss model armed)."""
        return self._fault is not None

    def channel(self, u: Hashable, v: Hashable) -> SimplexChannel:
        """Direct channel u→v (for inspection in tests/benchmarks)."""
        return self._graph.edges[u, v]["edge"].channel

    def pairs(self) -> List[Tuple[Hashable, Hashable]]:
        """All directed edges."""
        return list(self._graph.edges())
