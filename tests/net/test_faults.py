"""Unit tests for the lossy-link fault model (:mod:`repro.net.faults`)."""

from dataclasses import replace

import pytest

from repro.config import FaultConfig, LinkConfig
from repro.errors import ProtocolError
from repro.net import FaultModel, FaultyChannel, GilbertElliott, SimplexChannel
from repro.nic.packet import HEADER_BYTES, Packet, PacketKind
from repro.sim import RngStreams


def link_cfg(**kw):
    defaults = dict(bandwidth_bytes_per_s=1e9, propagation_delay=50_000, header_bytes=32)
    defaults.update(kw)
    return LinkConfig(**defaults)


def packet(seq=1, kind=PacketKind.READ_REQ, size=128):
    return Packet(kind=kind, src=0, dst=1, seq=seq, addr=0x1000, size=size)


class TestFaultConfig:
    def test_null_model_disabled(self):
        assert not FaultConfig().enabled

    def test_any_rate_enables(self):
        assert FaultConfig(loss_rate=1e-3).enabled
        assert FaultConfig(corrupt_rate=1e-3).enabled
        assert FaultConfig(duplicate_rate=1e-3).enabled
        assert FaultConfig(reorder_rate=1e-3).enabled

    def test_burst_enables_only_when_reachable(self):
        # burst=True with no way to enter the bad state is still null
        assert not FaultConfig(burst=True, p_good_to_bad=0.0).enabled
        assert FaultConfig(burst=True, p_good_to_bad=0.01).enabled

    def test_probability_validation(self):
        with pytest.raises(Exception):
            FaultConfig(loss_rate=1.5)
        with pytest.raises(Exception):
            FaultConfig(corrupt_rate=-0.1)

    def test_with_loss(self):
        cfg = FaultConfig().with_loss(0.25)
        assert cfg.loss_rate == 0.25


class TestFaultModel:
    def test_null_model_never_draws(self):
        model = FaultModel(FaultConfig(), RngStreams(1))
        assert not model.enabled
        assert model._loss is None  # no stream was ever created
        d = model.apply(packet(), arrival=100)
        assert d.arrival == 100 and not d.corrupted and d.duplicate_arrival is None

    def test_disarmed_model_is_clean(self):
        model = FaultModel(FaultConfig(loss_rate=1.0), RngStreams(1), active=False)
        d = model.apply(packet(), arrival=100)
        assert d.arrival == 100
        model.arm()
        d = model.apply(packet(), arrival=100)
        assert d.arrival is None and model.lost == 1

    def test_certain_loss(self):
        model = FaultModel(FaultConfig(loss_rate=1.0), RngStreams(1))
        for _ in range(10):
            assert model.apply(packet(), arrival=0).arrival is None
        assert model.lost == 10

    def test_corruption_breaks_decode_or_flags_payload(self):
        model = FaultModel(FaultConfig(corrupt_rate=1.0), RngStreams(2))
        header_hits = payload_hits = 0
        for seq in range(1, 201):
            # WRITE_REQ carries the 128 B line on the wire, so strikes
            # land in header and payload in proportion to their sizes.
            d = model.apply(packet(seq=seq, kind=PacketKind.WRITE_REQ), arrival=0)
            assert d.corrupted and d.delivered
            if d.header_corrupted:
                header_hits += 1
                # CRC mismatch, or a mangled magic field — either way
                # the decode refuses the bytes.
                with pytest.raises(ProtocolError):
                    Packet.decode(d.wire)
            else:
                payload_hits += 1
                Packet.decode(d.wire)  # header intact, CRC passes
        # Both header and payload strikes occur; payload dominates
        # (128 B payload vs 32 B header on the wire).
        assert header_hits > 0 and payload_hits > header_hits

    def test_header_only_packet_always_header_corrupt(self):
        model = FaultModel(FaultConfig(corrupt_rate=1.0), RngStreams(3))
        d = model.apply(packet(kind=PacketKind.PROBE, size=0), arrival=0)
        assert d.header_corrupted and not d.payload_corrupted
        assert len(d.wire) == HEADER_BYTES

    def test_clean_wire_is_the_encoded_header(self):
        p = packet()
        d = FaultModel(FaultConfig(), RngStreams(3)).apply(p, arrival=0)
        assert not d.header_corrupted and d.wire == p.encode()
        assert Packet.decode(d.wire) == p

    def test_duplicate_copy_keeps_the_struck_header(self):
        # The ARQ loop replays a channel duplicate as a copy of the
        # delivery without its duplicate arrival.
        cfg = FaultConfig(corrupt_rate=1.0, duplicate_rate=1.0)
        d = FaultModel(cfg, RngStreams(3)).apply(packet(kind=PacketKind.PROBE, size=0), 0)
        copy = replace(d, duplicate_arrival=None)
        assert copy.duplicate_arrival is None and copy.header_corrupted
        assert copy.wire == d.wire
        with pytest.raises(ProtocolError):
            Packet.decode(copy.wire)

    def test_reorder_adds_bounded_delay(self):
        cfg = FaultConfig(reorder_rate=1.0, reorder_jitter=1000)
        model = FaultModel(cfg, RngStreams(4))
        for _ in range(50):
            d = model.apply(packet(), arrival=500)
            assert 500 < d.arrival <= 500 + 1000 + 1

    def test_duplicate_arrival_later(self):
        model = FaultModel(FaultConfig(duplicate_rate=1.0), RngStreams(5))
        d = model.apply(packet(), arrival=500)
        assert d.delivered and d.duplicate_arrival > d.arrival

    def test_determinism_same_seed(self):
        cfg = FaultConfig(loss_rate=0.3, corrupt_rate=0.2, duplicate_rate=0.1)
        outcomes = []
        for _ in range(2):
            model = FaultModel(cfg, RngStreams(99))
            outcomes.append(
                [
                    (d.arrival, d.header_corrupted, d.payload_corrupted, d.duplicate_arrival)
                    for d in (model.apply(packet(seq=s), arrival=s * 10) for s in range(1, 101))
                ]
            )
        assert outcomes[0] == outcomes[1]

    def test_independent_streams_per_fault_type(self):
        # Turning corruption on must not change which packets are lost.
        losses = []
        for corrupt in (0.0, 0.5):
            cfg = FaultConfig(loss_rate=0.3, corrupt_rate=corrupt)
            model = FaultModel(cfg, RngStreams(7))
            losses.append(
                [model.apply(packet(seq=s), arrival=0).arrival is None for s in range(1, 101)]
            )
        assert losses[0] == losses[1]

    def test_summary_counters(self):
        model = FaultModel(FaultConfig(loss_rate=1.0), RngStreams(8))
        model.apply(packet(), arrival=0)
        s = model.summary()
        assert s["packets"] == 1 and s["lost"] == 1


class TestGilbertElliott:
    def test_stays_good_without_transitions(self):
        cfg = FaultConfig(loss_rate=0.0, burst=True, p_good_to_bad=0.0, p_bad_to_good=1.0)
        ge = GilbertElliott(cfg, RngStreams(1).get("burst"))
        assert all(ge.step() == 0.0 for _ in range(100))
        assert not ge.bad and ge.transitions == 0

    def test_bursty_losses_cluster(self):
        cfg = FaultConfig(
            loss_rate=0.0, burst=True, p_good_to_bad=0.05, p_bad_to_good=0.2,
            loss_rate_bad=0.9,
        )
        model = FaultModel(cfg, RngStreams(11))
        fates = [model.apply(packet(seq=s), arrival=0).arrival is None for s in range(1, 2001)]
        assert model._ge.transitions > 0 and model.lost > 0
        # Losses cluster: the chance a loss follows a loss far exceeds
        # the marginal loss rate.
        pairs = sum(1 for a, b in zip(fates, fates[1:]) if a and b)
        loss_rate = sum(fates) / len(fates)
        follow_rate = pairs / max(1, sum(fates[:-1]))
        assert follow_rate > 2 * loss_rate


class TestFaultyChannel:
    def test_serialization_charged_even_when_dropped(self):
        chan = SimplexChannel(link_cfg())
        faulty = FaultyChannel(chan, FaultModel(FaultConfig(loss_rate=1.0), RngStreams(1)))
        d = faulty.transmit_packet(packet(), at=0)
        assert d.arrival is None
        assert faulty.bytes_sent == packet().wire_bytes  # the bits left the NIC
        # A follow-up transmission queues behind the doomed one.
        d2_clean = SimplexChannel(link_cfg()).transmit(100, at=0)
        assert faulty.transmit(100, at=0) > d2_clean

    def test_clean_model_matches_plain_channel(self):
        plain = SimplexChannel(link_cfg())
        faulty = FaultyChannel(SimplexChannel(link_cfg()), FaultModel(FaultConfig(), RngStreams(1)))
        p = packet()
        assert faulty.transmit_packet(p, at=0).arrival == plain.transmit(p.wire_bytes, at=0)

    def test_passthroughs(self):
        chan = SimplexChannel(link_cfg())
        faulty = FaultyChannel(chan, FaultModel(FaultConfig(), RngStreams(1)))
        assert faulty.serialization_time(500) == chan.serialization_time(500)
        assert faulty.busy_until() == chan.busy_until()
        assert faulty.utilization(1_000_000) == chan.utilization(1_000_000)
        assert faulty.name == chan.name


class TestHopLossProcess:
    from repro.net.faults import HopLossProcess  # noqa: PLC0415

    def test_disabled_config_never_draws(self):
        from repro.net.faults import HopLossProcess

        hop = HopLossProcess(FaultConfig(), RngStreams(1).get("fabric.a->b"))
        assert not any(hop.lost() for _ in range(100))
        assert hop.frames == 100 and hop.drops == 0

    def test_certain_loss(self):
        from repro.net.faults import HopLossProcess

        hop = HopLossProcess(FaultConfig(loss_rate=1.0), RngStreams(1).get("fabric.a->b"))
        assert all(hop.lost() for _ in range(10))
        assert hop.drops == 10

    def test_named_stream_is_deterministic(self):
        from repro.net.faults import HopLossProcess

        def fates():
            hop = HopLossProcess(
                FaultConfig(loss_rate=0.3), RngStreams(7).get("fabric.b0->tor")
            )
            return [hop.lost() for _ in range(200)]

        assert fates() == fates()
        assert any(fates())

    def test_burst_mode_clusters_drops(self):
        from repro.net.faults import HopLossProcess

        cfg = FaultConfig(
            burst=True, p_good_to_bad=0.05, p_bad_to_good=0.2, loss_rate_bad=1.0
        )
        hop = HopLossProcess(cfg, RngStreams(3).get("fabric.a->b"))
        fates = [hop.lost() for _ in range(2000)]
        assert 0 < sum(fates) < 2000
        # Bursty: a drop is more often followed by a drop than the
        # marginal rate alone would produce.
        after_drop = [b for a, b in zip(fates, fates[1:]) if a]
        assert sum(after_drop) / len(after_drop) > sum(fates) / len(fates)


class TestLossyFabric:
    def _fabric(self, loss=0.2, seed=11):
        from repro.net.fabric import Fabric
        from repro.sim import RngStreams as Streams

        fault = FaultConfig(loss_rate=loss)
        fabric = Fabric(
            link_cfg(), fault=fault if loss else None, rng=Streams(seed) if loss else None
        )
        for node in ("b0", "tor", "l0"):
            fabric.add_node(node)
        fabric.connect("b0", "tor")
        fabric.connect("tor", "l0")
        return fabric

    def test_faulty_fabric_requires_rng(self):
        from repro.errors import ConfigError
        from repro.net.fabric import Fabric

        with pytest.raises(ConfigError, match="rng stream factory"):
            Fabric(link_cfg(), fault=FaultConfig(loss_rate=0.1))

    def test_clean_fabric_identical_with_and_without_fault_arg(self):
        clean = self._fabric(loss=0)
        disabled = self._fabric(loss=0)
        arrivals_a = [clean.transmit(128, "b0", "l0", t * 10_000) for t in range(20)]
        arrivals_b = [disabled.transmit(128, "b0", "l0", t * 10_000) for t in range(20)]
        assert arrivals_a == arrivals_b
        assert clean.retransmissions == 0

    def test_loss_retransmits_and_delays(self):
        lossy = self._fabric(loss=0.3)
        clean = self._fabric(loss=0)
        lossy_arrivals = [lossy.transmit(128, "b0", "l0", t * 200_000) for t in range(200)]
        clean_arrivals = [clean.transmit(128, "b0", "l0", t * 200_000) for t in range(200)]
        assert lossy.retransmissions > 0
        assert sum(lossy_arrivals) > sum(clean_arrivals)
        # Every frame still arrives, later or equal, never earlier.
        assert all(lo >= cl for lo, cl in zip(lossy_arrivals, clean_arrivals))

    def test_lossy_fabric_is_seed_deterministic(self):
        runs = []
        for _ in range(2):
            fabric = self._fabric(loss=0.3, seed=42)
            runs.append([fabric.transmit(128, "b0", "l0", t * 100_000) for t in range(100)])
        assert runs[0] == runs[1]

    def test_implausible_certain_loss_raises(self):
        from repro.errors import ReproError

        fabric = self._fabric(loss=1.0)
        with pytest.raises(ReproError, match="64 times"):
            fabric.transmit(128, "b0", "l0", 0)
