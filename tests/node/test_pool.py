"""Tests for the memory-pooling fabric (paper section V discussion)."""

import pytest

from repro.calibration import paper_cluster_config
from repro.errors import ConfigError
from repro.node.pool import MemoryPoolFabric, PoolConfig


def fabric(n, pool_gbs=25.0, period=1):
    return MemoryPoolFabric(
        n,
        pool=PoolConfig(bandwidth_bytes_per_s=pool_gbs * 1e9),
        cluster=paper_cluster_config(period=period),
    )


class TestPoolFabric:
    def test_single_borrower_link_bound(self):
        """With a wide pool, one borrower is link-bound as under borrowing."""
        results = fabric(1, pool_gbs=100.0).run_streams(lines_per_borrower=4000)
        bw = results[0]["bandwidth_bytes_per_s"]
        assert 9e9 < bw < 13e9  # ~link rate for a read-only stream

    def test_bottleneck_shifts_to_pool(self):
        """Four borrowers against a 25 GB/s pool: ~6 GB/s each."""
        results = fabric(4, pool_gbs=25.0).run_streams(lines_per_borrower=3000)
        bws = [r["bandwidth_bytes_per_s"] for r in results]
        total = sum(bws)
        assert total == pytest.approx(25e9, rel=0.15)
        mean = total / 4
        assert all(abs(b - mean) / mean < 0.15 for b in bws)

    def test_two_borrowers_fit_in_pool(self):
        """2 borrowers x ~11 GB/s < 25 GB/s: still link-bound each."""
        results = fabric(2, pool_gbs=25.0).run_streams(lines_per_borrower=3000)
        solo = fabric(1, pool_gbs=25.0).run_streams(lines_per_borrower=3000)
        for r in results:
            assert r["bandwidth_bytes_per_s"] == pytest.approx(
                solo[0]["bandwidth_bytes_per_s"], rel=0.1
            )

    def test_latency_grows_under_pool_saturation(self):
        unloaded = fabric(1, pool_gbs=25.0).run_streams(lines_per_borrower=3000)
        loaded = fabric(6, pool_gbs=25.0).run_streams(lines_per_borrower=3000)
        assert loaded[0]["mean_latency_ps"] > 1.5 * unloaded[0]["mean_latency_ps"]

    def test_injection_applies_per_borrower(self):
        """Delay injection still gates each borrower's egress."""
        slow = fabric(1, pool_gbs=100.0, period=200).run_streams(lines_per_borrower=2000)
        fast = fabric(1, pool_gbs=100.0, period=1).run_streams(lines_per_borrower=2000)
        assert slow[0]["bandwidth_bytes_per_s"] < 0.1 * fast[0]["bandwidth_bytes_per_s"]

    def test_validation(self):
        with pytest.raises(ConfigError):
            MemoryPoolFabric(0)
        with pytest.raises(ConfigError):
            PoolConfig(bandwidth_bytes_per_s=0)


#: Exact run_streams output pinned per config: one (bandwidth, mean
#: latency) pair per borrower.  Any change to the pool's datapath timing
#: shows up here as an inequality, not a tolerance drift.
POOL_PINS = {
    (1, 25.0, 1, 3000): [(9724552062.820606, 1650128.2133333334)],
    (4, 25.0, 1, 3000): [
        (6142034548.944338, 2612032.8533333335),
        (6141531595.621088, 2612251.3066666666),
        (6141028724.6618595, 2612469.76),
        (6140525936.046422, 2612688.2133333334),
    ],
    (6, 25.0, 1, 3000): [
        (4118856468.149226, 3894572.3733333335),
        (4118630280.856263, 3894790.8266666667),
        (4118404118.4041185, 3895009.28),
        (4118177980.7886996, 3895227.7333333334),
        (4117951868.005916, 3895446.1866666665),
        (4117725780.051677, 3895664.64),
    ],
    (1, 100.0, 200, 2000): [(204685926.07716608, 77504584.96)],
}


@pytest.mark.parametrize("n,pool_gbs,period,lines", sorted(POOL_PINS))
def test_pinned_run_streams(n, pool_gbs, period, lines):
    results = fabric(n, pool_gbs=pool_gbs, period=period).run_streams(
        lines_per_borrower=lines
    )
    got = [(r["bandwidth_bytes_per_s"], r["mean_latency_ps"]) for r in results]
    assert got == POOL_PINS[(n, pool_gbs, period, lines)]
