"""Unit tests for links, switches and fabrics."""

import pytest

from repro.config import LinkConfig
from repro.errors import ConfigError
from repro.net import DuplexLink, Fabric, SimplexChannel, Switch
from repro.nic.packet import HEADER_BYTES


def link_cfg(**kw):
    defaults = dict(bandwidth_bytes_per_s=1e9, propagation_delay=50_000, header_bytes=32)
    defaults.update(kw)
    return LinkConfig(**defaults)


class TestSimplexChannel:
    def test_store_and_forward_timing(self):
        chan = SimplexChannel(link_cfg())
        # 1000 bytes at 1 GB/s = 1 us serialization + 50 ns propagation
        assert chan.transmit(1000, at=0) == 1_000_000 + 50_000

    def test_fifo_queueing(self):
        chan = SimplexChannel(link_cfg())
        first = chan.transmit(1000, at=0)
        second = chan.transmit(1000, at=0)
        assert second == first + 1_000_000

    def test_serialization_time(self):
        chan = SimplexChannel(link_cfg())
        assert chan.serialization_time(500) == 500_000

    def test_counters(self):
        chan = SimplexChannel(link_cfg())
        chan.transmit(100, 0)
        chan.transmit(200, 0)
        assert chan.bytes_sent == 300


class TestDuplexLink:
    def test_directions_independent(self):
        link = DuplexLink(link_cfg())
        fwd = link.forward.transmit(1000, at=0)
        rev = link.reverse.transmit(1000, at=0)
        # full duplex: both complete at the same time, no contention
        assert fwd == rev

    def test_total_bytes(self):
        link = DuplexLink(link_cfg())
        link.forward.transmit(10, 0)
        link.reverse.transmit(20, 0)
        assert link.bytes_sent == 30


class TestSwitch:
    def test_forwarding_latency_and_serialization(self):
        sw = Switch(port_rate_bytes_per_s=1e9, forwarding_latency=500)
        done = sw.forward(1000, out_port="p0", at=0)
        assert done == 500 + 1_000_000

    def test_ports_independent(self):
        sw = Switch(1e9)
        a = sw.forward(1000, "p0", at=0)
        b = sw.forward(1000, "p1", at=0)
        assert a == b  # no cross-port interference

    def test_same_port_congests(self):
        sw = Switch(1e9)
        a = sw.forward(1000, "p0", at=0)
        b = sw.forward(1000, "p0", at=0)
        assert b == a + 1_000_000

    def test_queue_delay_estimate(self):
        sw = Switch(1e9)
        sw.forward(1000, "p0", at=0)
        assert sw.queue_delay_estimate("p0", at=0) == 1_000_000
        assert sw.queue_delay_estimate("unused", at=0) == 0

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Switch(0)


class TestFabric:
    def _two_pairs_one_switch(self):
        fabric = Fabric(link_cfg(propagation_delay=0))
        for node in ("b0", "b1", "l0", "l1"):
            fabric.add_node(node)
        fabric.add_switch("sw")
        for node in ("b0", "b1", "l0", "l1"):
            fabric.connect(node, "sw")
        return fabric

    def test_path_through_switch(self):
        fabric = self._two_pairs_one_switch()
        assert fabric.path("b0", "l0") == ["b0", "sw", "l0"]
        assert fabric.hop_count("b0", "l0") == 2

    def test_transmit_two_hops(self):
        fabric = self._two_pairs_one_switch()
        arrival = fabric.transmit(1000, "b0", "l0", at=0)
        assert arrival == 2_000_000  # two serializations, no propagation

    def test_shared_output_port_congestion(self):
        """Two borrowers sending to one lender contend on the sw->l0 hop."""
        fabric = self._two_pairs_one_switch()
        a = fabric.transmit(1000, "b0", "l0", at=0)
        b = fabric.transmit(1000, "b1", "l0", at=0)
        assert b > a  # second transfer queues on the shared egress

    def test_distinct_lenders_no_contention(self):
        fabric = self._two_pairs_one_switch()
        a = fabric.transmit(1000, "b0", "l0", at=0)
        b = fabric.transmit(1000, "b1", "l1", at=0)
        assert a == b

    def test_switched_burst_vs_point_to_point(self):
        """Four read-response bursts: store-and-forward vs a shared egress.

        Distinct lenders through one switch pay only the extra hop
        (< 2.2x a dedicated cable); four flows from one lender share its
        switch egress port and serialize (> 3x the distinct-lender time).
        """
        n_pairs, burst, resp_bytes = 4, 2000, HEADER_BYTES + 128
        link = DuplexLink(LinkConfig())
        for _ in range(burst):
            p2p = link.reverse.transmit(resp_bytes, at=0)

        def switched(shared_lender):
            fabric = Fabric(LinkConfig())
            fabric.add_switch("sw")
            lenders = ["l0"] * n_pairs if shared_lender else [f"l{i}" for i in range(n_pairs)]
            for node in [f"b{i}" for i in range(n_pairs)] + sorted(set(lenders)):
                fabric.add_node(node)
                fabric.connect(node, "sw")
            finish = [0] * n_pairs
            for _ in range(burst):  # interleaved, so the switch sees concurrent flows
                for i, lender in enumerate(lenders):
                    finish[i] = fabric.transmit(resp_bytes, lender, f"b{i}", at=0)
            return max(finish)

        distinct = switched(shared_lender=False)
        assert distinct < 2.2 * p2p
        assert switched(shared_lender=True) > 3 * distinct

    def test_no_path_raises(self):
        fabric = Fabric(link_cfg())
        fabric.add_node("a")
        fabric.add_node("b")
        with pytest.raises(ConfigError):
            fabric.transmit(10, "a", "b", at=0)

    def test_connect_unknown_vertex(self):
        fabric = Fabric(link_cfg())
        fabric.add_node("a")
        with pytest.raises(ConfigError):
            fabric.connect("a", "ghost")
