"""Tests for the beyond-rack multi-pair deployment."""

from dataclasses import replace

import pytest

from repro.calibration import paper_cluster_config
from repro.config import FaultConfig, TransportConfig
from repro.core.overload import OverloadConfig
from repro.core.resilience import HealthParams, LenderFailureSchedule, policy_by_name
from repro.engine import DesPhaseDriver, Location
from repro.errors import ConfigError, OverloadError
from repro.node.multipair import BeyondRackDeployment
from repro.node.reliable import ArqDelivery
from repro.obs import Observability, attribution_sidecar
from repro.units import US
from repro.workloads.stream import StreamConfig, StreamWorkload


def run_streams(deployment, n_elements=6000):
    """One STREAM instance per pair, co-run; per-pair bandwidths."""
    deployment.attach_all()
    drivers = []
    for idx, pair in enumerate(deployment.pairs):
        program = StreamWorkload(StreamConfig(n_elements=n_elements)).program(
            Location.REMOTE
        )
        drivers.append(DesPhaseDriver(pair, program, instance=f"pair{idx}"))
    procs = [d.start() for d in drivers]
    deployment.sim.run()
    for proc in procs:
        if not proc.ok:
            _ = proc.value
    return [d.result.bandwidth_bytes_per_s for d in drivers]


class TestDeploymentConstruction:
    def test_distinct_lenders_by_default(self):
        dep = BeyondRackDeployment(3, cluster=paper_cluster_config())
        assert dep.lender_fanin() == {"l0": 1, "l1": 1, "l2": 1}

    def test_incast_assignment(self):
        dep = BeyondRackDeployment(4, lender_assignment=[0, 0, 0, 0])
        assert dep.lender_fanin() == {"l0": 4}
        # all pairs share one physical lender node
        assert len({id(p.lender) for p in dep.pairs}) == 1

    def test_pairs_draw_independent_fault_sequences(self):
        """Each pair's fault models draw from its own RNG namespace."""
        cluster = paper_cluster_config(seed=11).with_fault(FaultConfig(loss_rate=0.01))
        dep = BeyondRackDeployment(3, cluster=cluster, delivery=ArqDelivery())
        draws = [
            tuple(float(pair.delivery.fault_fwd._loss.random()) for _ in range(4))
            for pair in dep.pairs
        ]
        assert len(set(draws)) == 3

    def test_attach_all(self):
        dep = BeyondRackDeployment(2, cluster=paper_cluster_config())
        dep.attach_all()
        assert all(p.attached for p in dep.pairs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_pairs": 0},
            {"n_pairs": 2, "lender_assignment": [0]},
            {"n_pairs": 1, "lender_assignment": [-1]},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            BeyondRackDeployment(**kwargs)


class TestFabricContention:
    def test_distinct_lenders_near_p2p_bandwidth(self):
        """No shared egress: each pair runs at ~point-to-point speed."""
        solo = run_streams(BeyondRackDeployment(1, cluster=paper_cluster_config()))
        quad = run_streams(
            BeyondRackDeployment(4, cluster=paper_cluster_config())
        )
        for bw in quad:
            assert bw == pytest.approx(solo[0], rel=0.1)

    def test_incast_divides_bandwidth(self):
        """All pairs toward one lender: the tor->l0 port serializes."""
        solo = run_streams(BeyondRackDeployment(1, cluster=paper_cluster_config()))
        incast = run_streams(
            BeyondRackDeployment(
                4, lender_assignment=[0, 0, 0, 0], cluster=paper_cluster_config()
            )
        )
        total = sum(incast)
        # The shared egress carries response payloads for everyone:
        # aggregate is capped near one link's worth.
        assert total < 1.35 * solo[0]
        mean = total / 4
        for bw in incast:
            assert bw == pytest.approx(mean, rel=0.25)

    def test_pinned_two_pair_incast(self):
        """Exact per-pair bandwidths of a 2-pair incast, STREAM 3000."""
        bws = run_streams(
            BeyondRackDeployment(
                2, lender_assignment=[0, 0], cluster=paper_cluster_config()
            ),
            n_elements=3000,
        )
        assert bws == [6914564413.331076, 6820246347.955626]

    def test_injection_still_applies_per_borrower(self):
        slow = run_streams(
            BeyondRackDeployment(2, cluster=paper_cluster_config(period=200)),
            n_elements=3000,
        )
        fast = run_streams(
            BeyondRackDeployment(2, cluster=paper_cluster_config(period=1)),
            n_elements=3000,
        )
        assert slow[0] < 0.1 * fast[0]


class TestFabricBlame:
    def test_incast_queueing_is_blamed_as_queue_wait(self):
        """Four borrowers onto one lender: shared-port queueing is
        charged ``queue_wait``, not ``service``, and tracing moves no
        timing."""

        def incast(obs=None):
            return BeyondRackDeployment(
                4,
                lender_assignment=[0] * 4,
                cluster=paper_cluster_config(period=1),
                obs=obs,
            )

        obs = Observability(trace=True, metrics=True, attrib=True)
        deployment = incast(obs)
        traced = run_streams(deployment)
        deployment.finish_obs()
        assert traced == run_streams(incast())
        points = attribution_sidecar(obs.tracer, metrics=obs.metrics)["points"]
        assert len(points) == 4
        for point in points:
            assert point["mismatched"] == 0
            assert point["blame_share"]["queue_wait"] > 0.5
            assert point["blame_share"]["service"] < 0.5


def shedding_deployment(n_pairs, **kwargs):
    """SR ARQ pairs on a 1 GB/s lender bus with lender-side shedding."""
    cluster = paper_cluster_config(period=1).with_transport(
        TransportConfig(selective_repeat=True)
    )
    dram = replace(cluster.lender.dram, bus_bandwidth_bytes_per_s=1e9)
    cluster = replace(cluster, lender=replace(cluster.lender, dram=dram))
    overload = OverloadConfig(
        admission="queue", admission_target_ps=2_000_000, lender_admission=True
    )
    return BeyondRackDeployment(
        n_pairs, cluster=cluster, delivery=ArqDelivery(overload=overload), **kwargs
    )


def drive_reads(deployment, workers, reads):
    """Closed-loop reads from every pair; returns ``(ok, failed fast)``."""
    tally = {"ok": 0, "shed": 0}

    def worker(pair, w):
        for k in range(reads):
            addr = pair.config.remote_region_base + (w * reads + k) * pair.line_bytes
            try:
                yield from pair.remote_access(addr)
                tally["ok"] += 1
            except OverloadError:
                tally["shed"] += 1

    for i, pair in enumerate(deployment.pairs):
        for w in range(workers):
            deployment.sim.process(worker(pair, w), name=f"b{i}.w{w}")
    deployment.sim.run()
    return tally["ok"], tally["shed"]


class TestLenderShedding:
    def test_shared_lender_bus_sheds(self):
        """Four pairs' backlog on one lender bus trips its admission."""
        dep = shedding_deployment(4, lender_assignment=[0] * 4)
        dep.attach_all()
        ok, shed = drive_reads(dep, workers=8, reads=50)
        bus = dep.lender_nodes[0].dram.bus
        assert bus.sheds == shed == 308
        assert ok + shed == 1600
        assert all(pair.lender is dep.lender_nodes[0] for pair in dep.pairs)

    def test_evacuated_pair_sheds_at_its_new_lender(self):
        dep = shedding_deployment(
            1,
            lender_assignment=[0],
            n_lenders=2,
            lender_schedules={0: LenderFailureSchedule.single("crash", at=40 * US)},
            failover=policy_by_name("evacuate"),
            health=HealthParams(period_ps=20 * US),
        )
        dep.attach_all()
        dep.arm_failover()
        drive_reads(dep, workers=64, reads=50)
        pair = dep.pairs[0]
        assert pair.availability.evacuated_to == "l1"
        assert pair.lender is dep.lender_nodes[1]
        assert dep.lender_nodes[1].dram.bus.sheds > 0


def observed_incast():
    """2-pair incast STREAM run with metrics on; returns (deployment, obs)."""
    obs = Observability(trace=False, metrics=True)
    dep = BeyondRackDeployment(
        2, lender_assignment=[0, 0], cluster=paper_cluster_config(), obs=obs
    )
    run_streams(dep, n_elements=3000)
    dep.finish_obs()
    return dep, obs


class TestSharedLenderObs:
    def test_timeline_reads_the_real_lender_bus(self):
        dep, obs = observed_incast()
        assert max(row["bandwidth_bytes_per_s"] for row in obs.timeline.rows) > 20e9
        assert dep.lender_nodes[0].dram.bus.queue_wait_hist is not None

    def test_shared_bus_histogram_is_folded_once(self):
        dep, obs = observed_incast()
        bus = dep.lender_nodes[0].dram.bus
        assert bus.queue_wait_hist.count == bus.transfers == 3760
        assert obs.metrics.histogram("lender.bus_queue_wait_ps").count == bus.transfers
