"""Memory pooling: CPU-less pool devices shared by many borrowers.

The paper's discussion (section V) contrasts its *borrowing* model
with *pooling*, "where the dedicated memory is managed by a controller
without any attached CPUs", and predicts that under pooling "the
bottleneck could shift from the network to the memory pool itself".

:class:`MemoryPoolFabric` is a preset over the one datapath: N default
:class:`~repro.node.cluster.ThymesisFlowSystem`\\ s on one simulator,
each with its own NIC (delay injector included) and its own link, all
handed the same pool :class:`~repro.node.node.Node` as their lender.
The pool's memory bus bandwidth is configurable — typically a small
multiple of one link, unlike a full lender node's memory bus.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from repro.config import ClusterConfig, DramConfig, default_cluster_config
from repro.errors import ConfigError
from repro.node.cluster import ThymesisFlowSystem
from repro.node.node import Node
from repro.sim import RngStreams, Simulator
from repro.units import Duration, nanoseconds

__all__ = ["PoolConfig", "MemoryPoolFabric"]

#: Pool controller turnaround: the whole lender-side latency ahead of
#: the pool's memory bus (the pool has no address-translating FPGA).
POOL_CONTROLLER_LATENCY = nanoseconds(60)


@dataclass(frozen=True)
class PoolConfig:
    """The pool device.

    Attributes
    ----------
    bandwidth_bytes_per_s:
        Internal bandwidth of the pool's memory controller — the
        quantity whose (relative) smallness shifts the bottleneck.
    access_latency:
        Media access latency.
    capacity_bytes:
        Pool size.
    """

    bandwidth_bytes_per_s: float = 25e9  # ~2x one 100Gb/s link
    access_latency: Duration = nanoseconds(120)
    capacity_bytes: int = 1 << 40

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ConfigError("pool bandwidth must be positive")
        if self.access_latency < 0:
            raise ConfigError("pool access latency must be >= 0")


class MemoryPoolFabric:
    """N borrowers sharing one CPU-less memory pool.

    Parameters
    ----------
    n_borrowers:
        Number of attached borrower nodes.
    pool:
        Pool device parameters.
    cluster:
        Per-borrower node/link/injection template (the standard
        testbed config).
    """

    def __init__(
        self,
        n_borrowers: int,
        pool: PoolConfig | None = None,
        cluster: ClusterConfig | None = None,
    ) -> None:
        if n_borrowers < 1:
            raise ConfigError("need at least one borrower")
        self.sim = Simulator()
        pool = pool or PoolConfig()
        cluster = cluster or default_cluster_config()
        dram = DramConfig(
            access_latency=pool.access_latency,
            bus_bandwidth_bytes_per_s=pool.bandwidth_bytes_per_s,
            capacity_bytes=pool.capacity_bytes,
        )
        self.pool_node = Node(self.sim, replace(cluster.lender, name="pool", dram=dram))
        nic = cluster.borrower.nic
        nic = replace(
            nic,
            translation_latency=0,
            fpga=replace(nic.fpga, turnaround_latency=POOL_CONTROLLER_LATENCY),
        )
        per_borrower = replace(cluster, borrower=replace(cluster.borrower, nic=nic))
        rng = RngStreams(cluster.seed, prefix="pool")
        self.systems: List[ThymesisFlowSystem] = []
        for i in range(n_borrowers):
            system = ThymesisFlowSystem(
                per_borrower, sim=self.sim, lender=self.pool_node, rng=rng.spawn(f"b{i}")
            )
            # A pool has no FPGA detection handshake to run.
            system.install_window()
            self.systems.append(system)
