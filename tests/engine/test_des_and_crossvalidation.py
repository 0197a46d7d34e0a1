"""DES phase-driver tests plus DES <-> fluid cross-validation.

The two engines are independent implementations of the same system
model; agreement on latency, bandwidth and completion time across
operating points is the strongest internal-consistency check the
reproduction has.
"""

import pytest

from repro.calibration import paper_cluster_config
from repro.engine import (
    AccessPhase,
    DesPhaseDriver,
    FluidEngine,
    Location,
    PhaseProgram,
    run_concurrent,
)
from repro.errors import WorkloadError
from repro.node.cluster import ThymesisFlowSystem


def attached(period=1):
    system = ThymesisFlowSystem(paper_cluster_config(period=period))
    system.attach_or_raise()
    return system


def remote_phase(n=2000, c=128, wf=0.5, z=0, compute=0, reps=1):
    return AccessPhase(
        "p", n_lines=n, concurrency=c, write_fraction=wf,
        compute_ps_per_line=z, compute_ps=compute, repeats=reps,
    )


class TestDesPhaseDriver:
    def test_runs_all_lines(self):
        system = attached()
        prog = PhaseProgram("w").add(remote_phase(n=500))
        result = DesPhaseDriver(system, prog).run_to_completion()
        assert result.lines == 500
        assert result.payload_bytes == 500 * 128
        assert len(result.latencies) == 500
        assert result.duration_ps > 0

    def test_phases_sequential(self):
        system = attached()
        prog = PhaseProgram("w").add(remote_phase(n=100)).add(remote_phase(n=100))
        result = DesPhaseDriver(system, prog).run_to_completion()
        assert result.lines == 200

    def test_compute_phase_advances_clock(self):
        system = attached()
        prog = PhaseProgram("w").add(
            AccessPhase("think", n_lines=0, compute_ps=1_000_000)
        )
        result = DesPhaseDriver(system, prog).run_to_completion()
        assert result.duration_ps == 1_000_000

    def test_repeats(self):
        system = attached()
        prog = PhaseProgram("w").add(remote_phase(n=10, reps=5))
        result = DesPhaseDriver(system, prog).run_to_completion()
        assert result.lines == 50

    def test_double_start_rejected(self):
        system = attached()
        driver = DesPhaseDriver(system, PhaseProgram("w").add(remote_phase(n=1)))
        driver.start()
        with pytest.raises(WorkloadError):
            driver.start()

    def test_workers_persist_across_phases(self):
        """One worker process per slot for the whole program, not per phase."""
        system = attached()
        spawned = []
        spawn = system.sim.process
        system.sim.process = lambda gen, name="": spawned.append(name) or spawn(gen, name)
        prog = (
            PhaseProgram("w")
            .add(remote_phase(n=100, c=8))
            .add(remote_phase(n=100, c=4, reps=2))
            .add(remote_phase(n=100, c=16))
        )
        result = DesPhaseDriver(system, prog).run_to_completion()
        assert result.lines == 400
        assert len(spawned) == 1 + 16  # the driver, then the widest phase's slots

    def test_worker_failure_fails_the_run(self):
        system = attached()

        def failing_access(addr, write=False, traffic_class=None):
            raise RuntimeError("datapath fault")
            yield  # pragma: no cover - makes this a generator

        system.remote_access = failing_access
        prog = PhaseProgram("w").add(remote_phase(n=100, c=8)).add(remote_phase(n=100))
        with pytest.raises(RuntimeError, match="datapath fault"):
            DesPhaseDriver(system, prog).run_to_completion()

    def test_local_and_lender_local_phases(self):
        system = attached()
        prog = (
            PhaseProgram("w")
            .add(AccessPhase("loc", n_lines=50, location=Location.LOCAL, concurrency=8))
            .add(AccessPhase("lend", n_lines=50, location=Location.LENDER_LOCAL, concurrency=8))
        )
        result = DesPhaseDriver(system, prog).run_to_completion()
        assert result.lines == 100
        assert system.lender.dram.reads + system.lender.dram.writes >= 50


class TestRunConcurrent:
    def test_instances_isolated_results(self):
        system = attached()
        progs = [PhaseProgram(f"w{i}").add(remote_phase(n=200)) for i in range(3)]
        results = run_concurrent(system, progs)
        assert len(results) == 3
        assert all(r.lines == 200 for r in results)
        names = {r.instance for r in results}
        assert len(names) == 3


class TestCrossValidation:
    """DES and fluid must agree within a few percent."""

    @pytest.mark.parametrize("period", [1, 8, 64, 512])
    def test_stream_like_agreement(self, period):
        prog = PhaseProgram("w").add(remote_phase(n=3000, c=128, wf=0.5))
        system = attached(period)
        des = DesPhaseDriver(system, prog).run_to_completion()
        fluid = FluidEngine(paper_cluster_config(period=period)).run(prog)
        assert des.mean_latency_ps == pytest.approx(fluid.mean_sojourn_ps, rel=0.06)
        assert des.bandwidth_bytes_per_s == pytest.approx(
            fluid.bandwidth_bytes_per_s, rel=0.06
        )

    @pytest.mark.parametrize("concurrency", [1, 8, 32])
    def test_concurrency_limited_agreement(self, concurrency):
        prog = PhaseProgram("w").add(remote_phase(n=1500, c=concurrency, wf=0.0))
        system = attached(1)
        des = DesPhaseDriver(system, prog).run_to_completion()
        fluid = FluidEngine(paper_cluster_config(period=1)).run(prog)
        assert des.duration_ps == pytest.approx(fluid.duration_ps, rel=0.08)

    def test_think_time_agreement(self):
        prog = PhaseProgram("w").add(remote_phase(n=1000, c=16, z=500_000))
        system = attached(1)
        des = DesPhaseDriver(system, prog).run_to_completion()
        fluid = FluidEngine(paper_cluster_config(period=1)).run(prog)
        assert des.duration_ps == pytest.approx(fluid.duration_ps, rel=0.08)

    def test_burst_request_agreement(self):
        # Redis-like: repeated compute + small burst.
        prog = PhaseProgram("w").add(
            remote_phase(n=12, c=32, compute=55_000_000, reps=50)
        )
        system = attached(64)
        des = DesPhaseDriver(system, prog).run_to_completion()
        fluid = FluidEngine(paper_cluster_config(period=64)).run(prog)
        assert des.duration_ps == pytest.approx(fluid.duration_ps, rel=0.08)

    def test_mcbn_fair_share_agreement(self):
        n_inst = 4
        system = attached(1)
        progs = [PhaseProgram(f"w{i}").add(remote_phase(n=1000)) for i in range(n_inst)]
        des_results = run_concurrent(system, progs)
        fluid = (
            FluidEngine(paper_cluster_config(period=1))
            .contended_remote_engines(n_inst)
            .run(progs[0])
        )
        mean_bw = sum(r.bandwidth_bytes_per_s for r in des_results) / n_inst
        assert mean_bw == pytest.approx(fluid.bandwidth_bytes_per_s, rel=0.10)
