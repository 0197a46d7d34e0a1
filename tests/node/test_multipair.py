"""Tests for the beyond-rack multi-pair deployment."""

import pytest

from repro.calibration import paper_cluster_config
from repro.engine import DesPhaseDriver, Location
from repro.errors import ConfigError
from repro.node.multipair import BeyondRackDeployment
from repro.obs import Observability, attribution_sidecar
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
