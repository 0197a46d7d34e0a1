"""Unit + property tests for the fluid engine and max-min solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import BDP_BYTES, T_CYC_PS, paper_cluster_config
from repro.engine import AccessPhase, FlowSpec, FluidEngine, Location, PhaseProgram
from repro.engine.fluid import solve_max_min_shares
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


class TestMaxMinSolver:
    def test_single_flow_demand_limited(self):
        alloc = solve_max_min_shares(
            [FlowSpec("a", demand=5.0, resources=("r",))], {"r": 100.0}
        )
        assert alloc["a"] == pytest.approx(5.0)

    def test_equal_split_when_all_greedy(self):
        flows = [FlowSpec(f"f{i}", demand=1e9, resources=("r",)) for i in range(4)]
        alloc = solve_max_min_shares(flows, {"r": 100.0})
        assert all(v == pytest.approx(25.0) for v in alloc.values())

    def test_small_flow_surplus_redistributed(self):
        flows = [
            FlowSpec("small", demand=10.0, resources=("r",)),
            FlowSpec("big1", demand=1e9, resources=("r",)),
            FlowSpec("big2", demand=1e9, resources=("r",)),
        ]
        alloc = solve_max_min_shares(flows, {"r": 100.0})
        assert alloc["small"] == pytest.approx(10.0)
        assert alloc["big1"] == pytest.approx(45.0)
        assert alloc["big2"] == pytest.approx(45.0)

    def test_multi_resource_bottleneck(self):
        # flow a crosses both; r2 is tighter.
        flows = [
            FlowSpec("a", demand=1e9, resources=("r1", "r2")),
            FlowSpec("b", demand=1e9, resources=("r1",)),
        ]
        alloc = solve_max_min_shares(flows, {"r1": 100.0, "r2": 20.0})
        assert alloc["a"] == pytest.approx(20.0)
        assert alloc["b"] == pytest.approx(80.0)

    def test_unknown_resource_raises(self):
        with pytest.raises(ConfigError):
            solve_max_min_shares([FlowSpec("a", 1.0, ("ghost",))], {"r": 1.0})

    @settings(deadline=None, max_examples=50)
    @given(
        demands=st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1, max_size=10),
        capacity=st.floats(min_value=1.0, max_value=1e6),
    )
    def test_property_feasible_and_demand_capped(self, demands, capacity):
        flows = [FlowSpec(f"f{i}", d, ("r",)) for i, d in enumerate(demands)]
        alloc = solve_max_min_shares(flows, {"r": capacity})
        total = sum(alloc.values())
        assert total <= capacity * (1 + 1e-9) or total <= sum(demands) * (1 + 1e-9)
        for flow in flows:
            assert alloc[flow.name] <= flow.demand * (1 + 1e-9)
        # work conservation: either capacity exhausted or all demands met
        assert total == pytest.approx(min(capacity, sum(demands)), rel=1e-6)


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
