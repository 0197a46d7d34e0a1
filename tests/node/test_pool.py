"""Tests for the memory-pooling fabric (paper section V discussion).

Every borrower runs the same STREAM program the borrowing arm of the
``ablation-pooling`` experiment runs, so pooled and borrowed numbers
compare like with like.
"""

import pytest

from repro.calibration import paper_cluster_config
from repro.engine import run_concurrent
from repro.engine.phases import Location
from repro.errors import ConfigError
from repro.experiments.ablations.pooling import run_stream_on_pool
from repro.node.cluster import ThymesisFlowSystem
from repro.node.pool import MemoryPoolFabric, PoolConfig
from repro.workloads.stream import StreamConfig, StreamWorkload


def fabric(n, pool_gbs=25.0, period=1):
    return MemoryPoolFabric(
        n,
        pool=PoolConfig(bandwidth_bytes_per_s=pool_gbs * 1e9),
        cluster=paper_cluster_config(period=period),
    )


def stream(n, pool_gbs=25.0, period=1, lines=3000):
    return run_stream_on_pool(fabric(n, pool_gbs=pool_gbs, period=period), lines)


class TestPoolFabric:
    def test_single_borrower_link_bound(self):
        """With a wide pool, one borrower is link-bound as under borrowing."""
        (pooled,) = stream(1, pool_gbs=100.0)
        system = ThymesisFlowSystem(paper_cluster_config(period=1))
        system.attach_or_raise()
        program = StreamWorkload(StreamConfig(n_elements=8000)).program(Location.REMOTE)
        (borrowed,) = run_concurrent(system, [program])
        assert pooled.bandwidth_bytes_per_s == pytest.approx(
            borrowed.bandwidth_bytes_per_s, rel=0.05
        )

    def test_bottleneck_shifts_to_pool(self):
        """Four borrowers against a 25 GB/s pool: ~6 GB/s each."""
        bws = [r.bandwidth_bytes_per_s for r in stream(4, pool_gbs=25.0)]
        total = sum(bws)
        assert total == pytest.approx(25e9, rel=0.15)
        mean = total / 4
        assert all(abs(b - mean) / mean < 0.15 for b in bws)

    def test_two_borrowers_fit_in_pool(self):
        """2 borrowers x ~13 GB/s < 40 GB/s: still link-bound each."""
        (solo,) = stream(1, pool_gbs=40.0)
        for r in stream(2, pool_gbs=40.0):
            assert r.bandwidth_bytes_per_s == pytest.approx(
                solo.bandwidth_bytes_per_s, rel=0.05
            )

    def test_latency_grows_under_pool_saturation(self):
        (unloaded,) = stream(1, pool_gbs=25.0)
        loaded = stream(6, pool_gbs=25.0)
        assert loaded[0].mean_latency_ps > 1.5 * unloaded.mean_latency_ps

    def test_injection_applies_per_borrower(self):
        """Delay injection still gates each borrower's egress."""
        (slow,) = stream(1, pool_gbs=100.0, period=200, lines=2000)
        (fast,) = stream(1, pool_gbs=100.0, period=1, lines=2000)
        assert slow.bandwidth_bytes_per_s < 0.1 * fast.bandwidth_bytes_per_s

    def test_validation(self):
        with pytest.raises(ConfigError):
            MemoryPoolFabric(0)
        with pytest.raises(ConfigError):
            PoolConfig(bandwidth_bytes_per_s=0)


#: Exact STREAM output pinned per config: one (bandwidth, mean latency)
#: pair per borrower.  Any change to the pool's datapath timing shows
#: up here as an inequality, not a tolerance drift.
POOL_PINS = {
    (1, 25.0, 1, 3000): [(12900244965.57358, 1213571.4736)],
    (4, 25.0, 1, 3000): [
        (6006752002.214689, 2594682.6296),
        (6002713639.251504, 2597274.8856),
        (6000408440.302021, 2599635.2056),
        (5999544447.090702, 2600945.4136),
    ],
    (6, 25.0, 1, 3000): [
        (4076475028.2209907, 3822344.4536),
        (4064545335.5766745, 3834010.3736),
        (4062431807.480138, 3837248.2616),
        (4059463374.7158837, 3843676.4216),
        (4058606634.9365644, 3845820.1656),
        (4057947850.3737745, 3848382.7256),
    ],
    (1, 100.0, 200, 2000): [(204548009.49263716, 74014705.42095809)],
}


@pytest.mark.parametrize("n,pool_gbs,period,lines", sorted(POOL_PINS))
def test_pinned_run_streams(n, pool_gbs, period, lines):
    results = stream(n, pool_gbs=pool_gbs, period=period, lines=lines)
    got = [(r.bandwidth_bytes_per_s, r.mean_latency_ps) for r in results]
    assert got == POOL_PINS[(n, pool_gbs, period, lines)]
