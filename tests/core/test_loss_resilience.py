"""Integration tests: reliable transport + fault injection + degradation."""

import math

import pytest

from repro.calibration import paper_cluster_config
from repro.config import FaultConfig, TransportConfig
from repro.core.resilience import (
    HostCrash,
    default_loss_ladder,
    loss_resilience_sweep,
)
from repro.errors import ProtocolError
from repro.nic import LenderIngress
from repro.nic.packet import Packet
from repro.node import ReliableThymesisFlowSystem, ThymesisFlowSystem


def make_system(loss=0.0, retries=4, seed=1234, degraded=False, armed=False, **fault_kw):
    fault = FaultConfig(loss_rate=loss, **fault_kw)
    config = (
        paper_cluster_config(seed=seed)
        .with_fault(fault)
        .with_transport(TransportConfig(max_retries=retries))
    )
    return ReliableThymesisFlowSystem(
        config, degraded_mode=degraded, faults_armed=armed
    )


def drive_burst(system, n=240, workers=8):
    base = system.config.remote_region_base

    def worker(i):
        for j in range(n // workers):
            yield from system.remote_access(base + 128 * j, write=(j % 2 == 0))

    procs = [system.sim.process(worker(i), name=f"w{i}") for i in range(workers)]
    system.sim.run()
    return procs


class TestCleanPath:
    def test_attach_and_run_without_faults(self):
        system = make_system()
        system.attach_or_raise()
        drive_burst(system)
        stats = system.transport.stats
        assert stats.retransmissions == 0
        assert stats.timeouts == 0
        assert stats.acks == stats.sent
        assert not system.quarantined

    def test_matches_base_system_timing(self):
        # With the null fault model the reliable datapath's completion
        # times equal the clean fire-and-forget path: the ARQ machinery
        # must add bookkeeping, not simulated time.
        def mean_latency(cls):
            config = paper_cluster_config(seed=7)
            system = cls(config)
            system.attach_or_raise()
            drive_burst(system, n=160)
            return system.remote_latency_mean_ps()

        assert mean_latency(ReliableThymesisFlowSystem) == mean_latency(
            ThymesisFlowSystem
        )

    def test_attach_under_armed_moderate_loss(self):
        # Retransmitted probes count as watchdog progress, so the
        # handshake survives moderate loss instead of tripping the
        # sojourn deadline.
        system = make_system(loss=0.02, armed=True, seed=11)
        system.attach_or_raise()
        assert system.attached
        assert system.transport.stats.retransmissions > 0


class TestLossRecovery:
    def test_losses_recovered_by_retransmission(self):
        system = make_system(loss=0.01, seed=21)
        system.attach_or_raise()
        system.arm_faults()
        procs = drive_burst(system)
        assert all(p.ok for p in procs)
        stats = system.transport.stats
        assert system.fault_fwd.lost + system.fault_rev.lost > 0
        assert stats.retransmissions > 0
        assert stats.acks == stats.sent  # every transaction completed

    def test_corruption_nacked_and_recovered(self):
        system = make_system(loss=0.0, corrupt_rate=0.05, seed=22)
        system.attach_or_raise()
        system.arm_faults()
        procs = drive_burst(system)
        assert all(p.ok for p in procs)
        stats = system.transport.stats
        assert stats.corrupt_drops > 0
        assert stats.nacks > 0  # at least one fast retransmit fired

    def test_duplicates_suppressed(self):
        system = make_system(loss=0.05, duplicate_rate=0.2, seed=23)
        system.attach_or_raise()
        system.arm_faults()
        procs = drive_burst(system)
        assert all(p.ok for p in procs)
        assert system.transport.stats.dup_suppressed > 0

    def test_go_back_n_amplifies_vs_selective_repeat(self):
        def retx(selective_repeat):
            fault = FaultConfig(loss_rate=0.01)
            config = (
                paper_cluster_config(seed=31)
                .with_fault(fault)
                .with_transport(
                    TransportConfig(max_retries=6, selective_repeat=selective_repeat)
                )
            )
            system = ReliableThymesisFlowSystem(config, faults_armed=False)
            system.attach_or_raise()
            system.arm_faults()
            drive_burst(system, n=400)
            return system.transport.stats.retransmissions

        assert retx(selective_repeat=False) > retx(selective_repeat=True)

    def test_deterministic_retx_counts(self):
        def counts():
            system = make_system(loss=0.01, corrupt_rate=0.002, seed=41)
            system.attach_or_raise()
            system.arm_faults()
            drive_burst(system)
            return system.transport.stats.as_dict()

        assert counts() == counts()


class TestWireEncoding:
    """Header bytes are built only for the deliveries a fault struck."""

    @pytest.fixture
    def codec_calls(self, monkeypatch):
        """Count ``Packet.encode`` calls and record each ``decode`` outcome."""
        calls = {"encode": 0, "decode": []}
        encode, decode = Packet.encode, Packet.decode

        def counting_encode(packet):
            calls["encode"] += 1
            return encode(packet)

        def recording_decode(cls, data):
            try:
                packet = decode(data)
            except ProtocolError as exc:
                calls["decode"].append(type(exc))
                raise
            calls["decode"].append(None)
            return packet

        monkeypatch.setattr(Packet, "encode", counting_encode)
        monkeypatch.setattr(Packet, "decode", classmethod(recording_decode))
        return calls

    def test_loss_only_run_encodes_nothing(self, codec_calls):
        system = make_system(loss=0.02, armed=True, seed=5)
        system.attach_or_raise()
        drive_burst(system)
        assert system.transport.stats.retransmissions > 0
        assert codec_calls == {"encode": 0, "decode": []}

    def test_every_struck_header_is_decoded_and_refused(self, codec_calls, monkeypatch):
        struck = []
        verify = LenderIngress.verify

        def counting_verify(ingress, delivery):
            struck.append(delivery.header_corrupted)
            return verify(ingress, delivery)

        monkeypatch.setattr(LenderIngress, "verify", counting_verify)
        system = make_system(armed=True, seed=9, corrupt_rate=0.05, duplicate_rate=0.05)
        system.attach_or_raise()
        drive_burst(system)
        assert sum(struck) > 0 and not all(struck)
        # One real decode per struck arrival (channel duplicates
        # included), and each one raises.
        assert len(codec_calls["decode"]) == sum(struck)
        assert all(
            exc is not None and issubclass(exc, ProtocolError) for exc in codec_calls["decode"]
        )
        # Encoding happens only where a bit was struck (payload strikes
        # need no header bytes either).
        strikes = system.fault_fwd.corrupted + system.fault_rev.corrupted
        assert 0 < codec_calls["encode"] < strikes
        assert system.transport.stats.corrupt_drops >= sum(struck)


class TestCrashAndDegrade:
    def test_extreme_loss_crashes_by_default(self):
        system = make_system(loss=0.9, seed=51)
        system.attach_or_raise()
        system.arm_faults()
        procs = drive_burst(system)
        crashed = [p for p in procs if not p.ok]
        assert crashed
        assert isinstance(crashed[0]._exc, HostCrash)  # noqa: SLF001
        assert not system.quarantined

    def test_degraded_mode_quarantines_instead(self):
        system = make_system(loss=0.9, seed=51, degraded=True)
        system.attach_or_raise()
        system.arm_faults()
        procs = drive_burst(system)
        assert all(p.ok for p in procs)
        assert system.quarantined
        assert system.switchover_ps is not None and system.switchover_ps > 0
        assert system.stats.counters.get("degraded.accesses", 0) > 0

    def test_burst_loss_beats_budget_at_low_mean_loss(self):
        # Gilbert-Elliott: long bad windows defeat the retry budget at
        # a mean loss rate where i.i.d. losses never would.
        system = make_system(
            loss=0.001,
            seed=52,
            degraded=True,
            burst=True,
            p_good_to_bad=0.002,
            p_bad_to_good=0.001,
            loss_rate_bad=1.0,
        )
        system.attach_or_raise()
        system.arm_faults()
        procs = drive_burst(system, n=2000)
        assert all(p.ok for p in procs)
        assert system.quarantined
        assert system.fault_fwd._ge is not None


class TestLossResilienceSweep:
    def test_default_ladder_shape(self):
        ladder = default_loss_ladder(1e-3)
        assert ladder[0] == 0.0
        assert 1e-3 in ladder and 0.5 in ladder and 0.9 in ladder
        assert list(ladder) == sorted(ladder)

    def test_sweep_reports_boundary_and_monotone_goodput(self):
        report = loss_resilience_sweep((0.0, 1e-2, 0.9), retries=3, n_lines=600)
        assert [p.outcome for p in report.points] == ["ok", "ok", "crashed"]
        clean, lossy, dead = report.points
        assert clean.retransmissions == 0
        assert lossy.retransmissions > 0
        assert clean.goodput_bytes_per_s > lossy.goodput_bytes_per_s > 0
        assert dead.goodput_bytes_per_s == 0.0
        assert math.isnan(dead.latency_p99_ps)
        assert report.failure_boundary() == 0.9

    def test_boundary_location_unmoved_by_degraded_toggle(self):
        kw = dict(retries=3, n_lines=600)
        crash = loss_resilience_sweep((0.0, 0.9), degraded_mode=False, **kw)
        degrade = loss_resilience_sweep((0.0, 0.9), degraded_mode=True, **kw)
        assert crash.failure_boundary() == degrade.failure_boundary() == 0.9
        assert crash.points[1].outcome == "crashed"
        assert degrade.points[1].outcome == "degraded"
        assert degrade.points[1].switchover_ps is not None
        assert degrade.points[1].degraded_accesses > 0

    def test_sweep_deterministic(self):
        def run():
            report = loss_resilience_sweep((1e-2,), retries=4, n_lines=400)
            return report.points[0].retransmissions, report.points[0].timeouts

        assert run() == run()


class TestFig4ChaosExperiment:
    def test_quick_chaos_run_passes(self):
        from repro.experiments.fig4_resilience import run

        result = run(loss=1e-3, retries=4, quick=True)
        assert result.passed, result.failed_checks()
        assert result.columns[0] == "loss_rate"

    def test_degraded_flag_flips_outcome_column(self):
        from repro.experiments.fig4_resilience import run

        result = run(loss=1e-3, retries=4, degraded=True, quick=True)
        assert result.passed, result.failed_checks()
        outcomes = {row[1] for row in result.rows}
        assert "degraded" in outcomes and "crashed" not in outcomes

    def test_base_fig4_unchanged_without_loss(self):
        from repro.experiments.fig4_resilience import run

        result = run(quick=True)
        assert result.columns == ("PERIOD", "status", "latency_us")
