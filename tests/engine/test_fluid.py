"""Unit tests for the fluid engine."""

import numpy as np
import pytest

from repro.calibration import BDP_BYTES, T_CYC_PS, paper_cluster_config
from repro.engine import AccessPhase, FluidEngine, Location, PhaseProgram
from repro.errors import ConfigError


def engine(period=1, **kw):
    return FluidEngine(paper_cluster_config(period=period), **kw)


def phase(n=1000, c=128, wf=0.0, loc=Location.REMOTE, z=0, compute=0, reps=1):
    return AccessPhase(
        "p",
        n_lines=n,
        concurrency=c,
        write_fraction=wf,
        location=loc,
        compute_ps_per_line=z,
        compute_ps=compute,
        repeats=reps,
    )


class TestPhaseEvaluation:
    def test_gate_bound_duration(self):
        eng = engine(period=1000)
        d = eng.phase_duration_ps(phase(n=1000))
        assert d == pytest.approx(999 * 1000 * T_CYC_PS, rel=0.01)

    def test_sojourn_littles_law(self):
        eng = engine(period=100)
        s = eng.phase_sojourn_ps(phase(n=100_000, c=128))
        assert s == pytest.approx(128 * 100 * T_CYC_PS, rel=0.01)

    def test_small_burst_sojourn_is_base_latency(self):
        eng = engine(period=1)
        s = eng.phase_sojourn_ps(phase(n=4, c=32))
        assert s == pytest.approx(eng.model.base_latency)

    def test_compute_only_phase(self):
        eng = engine()
        d = eng.phase_duration_ps(phase(n=0, compute=12345, reps=3))
        assert d == 3 * 12345

    def test_local_phase_faster(self):
        eng = engine(period=100)
        remote = eng.phase_duration_ps(phase(n=1000))
        local = eng.phase_duration_ps(phase(n=1000, loc=Location.LOCAL))
        assert local * 10 < remote

    def test_think_time_slows_latency_bound(self):
        eng = engine(period=1)
        fast = eng.phase_duration_ps(phase(n=10_000, c=8, z=0))
        slow = eng.phase_duration_ps(phase(n=10_000, c=8, z=100_000))
        assert slow > fast

    def test_run_program_aggregates(self):
        eng = engine()
        prog = PhaseProgram("w").add(phase(n=100)).add(phase(n=200, loc=Location.LOCAL))
        result = eng.run(prog)
        assert result.remote_lines == 100
        assert result.payload_bytes == 300 * 128
        assert result.duration_ps > 0
        assert result.bandwidth_bytes_per_s > 0


class TestSweep:
    def test_sweep_shapes_and_bdp(self):
        eng = engine()
        periods = [1, 4, 16, 64, 256]
        sojourn, bw, bdp = eng.sweep_remote_steady_state(periods, concurrency=128)
        assert sojourn.shape == (5,)
        assert np.all(np.diff(sojourn) >= 0)
        assert np.all(np.diff(bw) <= 0)
        assert np.allclose(bdp, BDP_BYTES, rtol=1e-6)

    def test_sweep_rejects_bad_period(self):
        with pytest.raises(ConfigError):
            engine().sweep_remote_steady_state([0], concurrency=1)


class TestContention:
    def test_mcbn_share_scales(self):
        eng = engine()
        solo = eng.run(PhaseProgram("w").add(phase(n=10_000)))
        quarter = eng.contended_remote_engines(4).run(PhaseProgram("w").add(phase(n=10_000)))
        assert quarter.bandwidth_bytes_per_s == pytest.approx(
            solo.bandwidth_bytes_per_s / 4, rel=0.05
        )

    def test_share_validation(self):
        with pytest.raises(ConfigError):
            engine(remote_share=0)
        with pytest.raises(ConfigError):
            engine().contended_remote_engines(0)

    def test_with_period_preserves_shares(self):
        eng = FluidEngine(paper_cluster_config(), remote_share=0.5)
        assert eng.with_period(10).remote_share == 0.5
