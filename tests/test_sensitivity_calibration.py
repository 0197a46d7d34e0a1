"""Sensitivity: do the paper's findings survive recalibration?

The reproduction's constants (W=128, t_cyc=3.125 ns, 100 Gb/s link)
are pinned to the paper's anchors, but the paper's *conclusions* —
linearity of latency in PERIOD, constant BDP tracking the window, and
the Redis ≪ Graph500 sensitivity gap — should not depend on those
exact values.  Each case perturbs one constant substantially and
re-checks the shape criteria on the fluid engine.
"""

from dataclasses import replace

import pytest

from repro.analysis.stats import bdp_constancy, linear_correlation
from repro.calibration import paper_cluster_config
from repro.config import CpuConfig, FpgaConfig, LinkConfig
from repro.engine.fluid import FluidEngine
from repro.engine.phases import Location
from repro.units import gbit_per_s_to_bytes_per_s
from repro.workloads.graph500 import Graph500Config, Graph500Workload
from repro.workloads.kvstore import RedisWorkload, RedisWorkloadConfig

PERIODS = (4, 16, 64, 256)

VARIANTS = {
    "baseline": {},
    "window=64": {"window": 64},
    "window=256": {"window": 256},
    "t_cyc-20%": {"t_cyc_ps": 2500},
    "t_cyc+20%": {"t_cyc_ps": 3750},
    "link=50Gb": {"link_gbps": 50.0},
    "link=200Gb": {"link_gbps": 200.0},
}


def _variant(window=128, t_cyc_ps=3125, link_gbps=100.0):
    base = paper_cluster_config()
    borrower = replace(
        base.borrower,
        cpu=replace(CpuConfig(), max_outstanding_misses=window),
        nic=replace(
            base.borrower.nic, fpga=replace(FpgaConfig(), clock_period=t_cyc_ps)
        ),
    )
    return replace(
        base,
        borrower=borrower,
        link=replace(
            LinkConfig(), bandwidth_bytes_per_s=gbit_per_s_to_bytes_per_s(link_gbps)
        ),
    )


def _degradation(workload, config) -> float:
    """Remote JCT at PERIOD=256 over PERIOD=1."""
    base_t = workload.run_fluid(FluidEngine(config.with_period(1)), Location.REMOTE)
    hi_t = workload.run_fluid(FluidEngine(config.with_period(256)), Location.REMOTE)
    return hi_t.duration_ps / base_t.duration_ps


@pytest.mark.parametrize("name", list(VARIANTS))
def test_paper_shape_holds_under_recalibration(name):
    config = _variant(**VARIANTS[name])
    window = config.borrower.cpu.max_outstanding_misses
    sojourns, bws = [], []
    for period in PERIODS:
        engine = FluidEngine(config.with_period(period))
        s, b, _ = engine.sweep_remote_steady_state([period], concurrency=window)
        sojourns.append(float(s[0]))
        bws.append(float(b[0]))
    mean_bdp, bdp_dev = bdp_constancy(bws, sojourns)
    # Linearity and BDP constancy hold at every design point ...
    assert linear_correlation(PERIODS, sojourns) > 0.99
    assert bdp_dev < 0.05
    # ... with BDP tracking the perturbed window, not a constant.
    assert mean_bdp == pytest.approx(window * 128, rel=0.05)
    # The Redis ≪ Graph500 sensitivity gap survives everywhere.
    redis = _degradation(
        RedisWorkload(RedisWorkloadConfig(n_requests=50, trace_sample=300)), config
    )
    graph = _degradation(Graph500Workload(Graph500Config(scale=9, n_roots=1)), config)
    assert redis < 1.3
    assert graph > 5
    assert graph > 4 * redis
