"""Integration tests for the end-to-end ThymesisFlow testbed."""

import pytest

from repro.calibration import (
    BDP_BYTES,
    OUTSTANDING_WINDOW,
    T_CYC_PS,
    baseline_remote_latency_ps,
    paper_cluster_config,
)
from repro.engine.des import DesPhaseDriver, run_concurrent
from repro.engine.phases import AccessPhase, Location, PhaseProgram
from repro.errors import AttachError, SimulationError
from repro.node.cluster import ThymesisFlowSystem
from repro.obs import Observability
from repro.sim import AllOf
from repro.units import US


def attached_system(period=1, **kw):
    system = ThymesisFlowSystem(paper_cluster_config(period=period, **kw))
    system.attach_or_raise()
    return system


def run_accesses(system, n, write=False, concurrency=1):
    """Drive n remote accesses with the given concurrency; return results."""
    results = []
    base = system.config.remote_region_base
    line = system.line_bytes
    state = {"next": 0}

    def worker():
        while state["next"] < n:
            idx = state["next"]
            state["next"] += 1
            result = yield from system.remote_access(base + idx * line, write=write)
            results.append(result)

    def root():
        procs = [system.sim.process(worker()) for _ in range(concurrency)]
        yield AllOf(system.sim, procs)

    proc = system.sim.process(root())
    system.sim.run()
    assert proc.ok
    return results


class TestAttach:
    def test_attach_succeeds_at_low_period(self):
        system = attached_system(period=1)
        assert system.attached
        assert system.translator.covers(system.config.remote_region_base)

    def test_attach_succeeds_at_period_1000(self):
        assert attached_system(period=1000).attached

    def test_attach_fails_at_period_10000(self):
        system = ThymesisFlowSystem(paper_cluster_config(period=10_000))
        with pytest.raises(AttachError):
            system.attach_or_raise()
        assert not system.attached

    def test_access_before_attach_raises(self):
        system = ThymesisFlowSystem(paper_cluster_config())
        gen = system.remote_access(system.config.remote_region_base)
        with pytest.raises(AttachError):
            next(gen)


class TestRemoteAccessTiming:
    def test_single_access_latency_near_baseline(self):
        system = attached_system(period=1)
        (result,) = run_accesses(system, 1)
        base = baseline_remote_latency_ps()
        assert base * 0.9 <= result.latency <= base * 1.2

    def test_write_and_read_similar_unloaded_latency(self):
        reads = run_accesses(attached_system(), 1, write=False)
        writes = run_accesses(attached_system(), 1, write=True)
        assert writes[0].latency == pytest.approx(reads[0].latency, rel=0.1)

    def test_high_period_adds_gate_delay(self):
        system = attached_system(period=1000)
        (result,) = run_accesses(system, 1)
        # A lone access waits at most one gate interval, not W intervals.
        assert result.latency < baseline_remote_latency_ps() + 1001 * T_CYC_PS

    def test_saturated_window_sojourn_matches_littles_law(self):
        system = attached_system(period=100)
        results = run_accesses(system, 600, concurrency=OUTSTANDING_WINDOW)
        tail = results[len(results) // 2 :]
        mean = sum(r.latency for r in tail) / len(tail)
        expected = OUTSTANDING_WINDOW * 100 * T_CYC_PS
        assert expected * 0.9 <= mean <= expected * 1.1

    def test_bdp_emerges(self):
        system = attached_system(period=50)
        results = run_accesses(system, 800, concurrency=OUTSTANDING_WINDOW)
        duration = results[-1].complete_time - results[0].issue_time
        bandwidth = len(results) * system.line_bytes * 1e12 / duration
        mean_latency = sum(r.latency for r in results) / len(results)
        bdp = bandwidth * mean_latency / 1e12
        assert abs(bdp - BDP_BYTES) / BDP_BYTES < 0.15

    def test_stats_recorded(self):
        system = attached_system()
        run_accesses(system, 10)
        assert system.stats.counters["remote.transactions"] == 10
        assert system.remote_bytes_moved() == 10 * system.line_bytes
        assert system.remote_latency_mean_ps() > 0


class TestLocalAccess:
    def test_local_access_fast(self):
        system = attached_system()
        results = []

        def proc():
            result = yield from system.local_access(system.borrower, 0)
            results.append(result)

        system.sim.process(proc())
        system.sim.run()
        assert results[0].latency < 1 * US
        assert not results[0].remote

    def test_router_steers_by_address(self):
        system = attached_system()
        results = []

        def proc():
            r1 = yield from system.access(0)  # local DRAM
            r2 = yield from system.access(system.config.remote_region_base)
            results.extend([r1, r2])

        system.sim.process(proc())
        system.sim.run()
        assert not results[0].remote and results[1].remote
        assert results[1].latency > results[0].latency


class TestWindowBackpressure:
    def test_outstanding_never_exceeds_window(self):
        system = attached_system(period=20)
        peak = []
        base = system.config.remote_region_base

        def worker(i):
            yield from system.remote_access(base + i * 128)
            peak.append(system.borrower.window.peak_occupancy)

        for i in range(300):
            system.sim.process(worker(i))
        system.sim.run()
        assert max(peak) <= OUTSTANDING_WINDOW
        assert system.borrower.window.outstanding == 0


def lender_local_program(n=64):
    return PhaseProgram("hammer").add(
        AccessPhase("lend", n_lines=n, location=Location.LENDER_LOCAL, concurrency=8)
    )


class TestReserveAhead:
    """A private clean system reserves the lender bus at the gate grant;
    lender-local traffic must put it back on the sleeping path."""

    def contended(self, obs=None):
        system = ThymesisFlowSystem(paper_cluster_config(period=1), obs=obs)
        system.attach_or_raise()  # probes do not touch the lender bus
        attached_at = system.sim.events_processed
        remote = PhaseProgram("remote").add(AccessPhase("r", n_lines=400, concurrency=32))
        results = run_concurrent(system, [remote, lender_local_program(400)])
        return system.sim.events_processed - attached_at, results

    def test_lender_local_driver_keeps_sleeping_path(self):
        # A live timeline always sleeps, so it is the reference order.
        plain_events, plain_results = self.contended()
        slept_events, slept_results = self.contended(Observability(trace=False, metrics=True))
        for a, b in zip(plain_results, slept_results):
            assert a.latencies.values.tolist() == b.latencies.values.tolist()
            assert a.end_time == b.end_time
        assert plain_events == slept_events

    def test_lender_local_driver_after_reservation_ahead_raises(self):
        system = attached_system()
        run_accesses(system, 4)
        with pytest.raises(SimulationError, match="ahead"):
            DesPhaseDriver(system, lender_local_program())

    def test_lender_local_access_after_reservation_ahead_raises(self):
        system = attached_system()
        run_accesses(system, 4)
        gen = system.local_access(system.lender, 0)
        with pytest.raises(SimulationError, match="ahead"):
            next(gen)

    def test_reserving_ahead_sleeps_once(self):
        ahead = attached_system()
        before = ahead.sim.events_processed
        run_accesses(ahead, 50, concurrency=8)
        slept = ThymesisFlowSystem(
            paper_cluster_config(period=1), obs=Observability(trace=False, metrics=True)
        )
        slept.attach_or_raise()
        slept_before = slept.sim.events_processed
        results = run_accesses(slept, 50, concurrency=8)
        assert (slept.sim.events_processed - slept_before) - (
            ahead.sim.events_processed - before
        ) == 50
        assert [r.latency for r in run_accesses(attached_system(), 50, concurrency=8)] == [
            r.latency for r in results
        ]
