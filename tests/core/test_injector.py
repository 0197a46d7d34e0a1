"""Unit + property tests for the delay injector — the paper's contribution.

The injector must honor the published equation
``READY_NEW = READY_OLD & (COUNTER % PERIOD == 0)``: grants on the
absolute PERIOD-cycle grid, one transaction per opportunity, order
preserved.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DelayInjectionConfig, FpgaConfig
from repro.core.delay import DelayInjector, DelaySchedule
from repro.sim import RngStreams

T_CYC = FpgaConfig().clock_period  # 3125 ps


def injector(period=1, schedule=None, **inj_kw):
    cfg = DelayInjectionConfig(period=period, **inj_kw)
    return DelayInjector(cfg, FpgaConfig(), rng=RngStreams(7), schedule=schedule)


class TestConstantInjection:
    def test_period_one_passes_every_cycle(self):
        inj = injector(period=1)
        grants = [inj.admit(0) for _ in range(3)]
        assert grants == [0, T_CYC, 2 * T_CYC]

    def test_grants_on_period_grid(self):
        inj = injector(period=10)
        grid = 10 * T_CYC
        for arrival in (1, 12_345, 99_999):
            assert inj.admit(arrival) % grid == 0

    def test_saturated_interdeparture_equals_period(self):
        inj = injector(period=100)
        grants = [inj.admit(0) for _ in range(5)]
        gaps = np.diff(grants)
        assert (gaps == 100 * T_CYC).all()

    def test_interval_property(self):
        assert injector(period=7).interval_ps == 7 * T_CYC

    def test_wait_samples_recorded(self):
        inj = injector(period=10)
        inj.admit(1)  # waits until next grid point
        assert len(inj.waits) == 1
        assert inj.waits.sum() == inj.wait_sum_ps > 0
        assert inj.waits.mean() == inj.wait_sum_ps
        assert inj.transactions == 1

    def test_mean_interval(self):
        assert injector(period=4).mean_interval_ps() == 4 * T_CYC

    @given(
        period=st.integers(1, 2000),
        arrivals=st.lists(st.integers(0, 10**9), min_size=1, max_size=100),
    )
    @settings(deadline=None, max_examples=50)
    def test_property_published_equation_contract(self, period, arrivals):
        inj = injector(period=period)
        arrivals = sorted(arrivals)
        grants = [inj.admit(t) for t in arrivals]
        grid = period * T_CYC
        for arrival, grant in zip(arrivals, grants):
            assert grant >= arrival
            assert grant % grid == 0
        for a, b in zip(grants, grants[1:]):
            assert b - a >= grid


class TestDistributionInjection:
    def test_exponential_mean_spacing(self):
        inj = injector(period=1, distribution="exponential", scale_cycles=50)
        grants = [inj.admit(0) for _ in range(2000)]
        mean_gap = float(np.diff(grants).mean())
        # mean spacing ~ scale_cycles * t_cyc, within sampling noise
        assert 0.8 * 50 * T_CYC < mean_gap < 1.25 * 50 * T_CYC

    def test_uniform_spacing_bounds(self):
        inj = injector(period=1, distribution="uniform", low_cycles=10, high_cycles=20)
        grants = [inj.admit(0) for _ in range(500)]
        gaps = np.diff(grants)
        assert gaps.min() >= 10 * T_CYC - T_CYC
        assert gaps.max() <= 20 * T_CYC + T_CYC

    def test_lognormal_positive_spacing(self):
        inj = injector(period=1, distribution="lognormal", scale_cycles=30, sigma=0.5)
        grants = [inj.admit(0) for _ in range(200)]
        assert (np.diff(grants) >= T_CYC).all()

    def test_grants_clock_aligned(self):
        inj = injector(period=1, distribution="exponential", scale_cycles=7)
        for _ in range(100):
            assert inj.admit(0) % T_CYC == 0

    def test_deterministic_under_seed(self):
        a = injector(period=1, distribution="exponential", scale_cycles=9)
        b = injector(period=1, distribution="exponential", scale_cycles=9)
        assert [a.admit(0) for _ in range(50)] == [b.admit(0) for _ in range(50)]

    def test_order_preserved(self):
        inj = injector(period=1, distribution="exponential", scale_cycles=20)
        grants = [inj.admit(t) for t in range(0, 10_000, 100)]
        assert grants == sorted(grants)


class TestScheduledInjection:
    def test_period_switches_with_schedule(self):
        # 1 us at PERIOD=1 then PERIOD=100.
        sched = DelaySchedule([(0, 1), (1_000_000, 100)])
        inj = injector(period=1, schedule=sched)
        early = [inj.admit(0) for _ in range(3)]
        assert np.diff(early).max() == T_CYC
        late_a = inj.admit(2_000_000)
        late_b = inj.admit(2_000_000)
        assert late_b - late_a == 100 * T_CYC
        assert inj.period == 100

    def test_schedule_back_to_fast(self):
        sched = DelaySchedule([(0, 100), (1_000_000, 1)])
        inj = injector(period=100, schedule=sched)
        inj.admit(0)
        a = inj.admit(2_000_000)
        b = inj.admit(2_000_000)
        assert b - a == T_CYC
