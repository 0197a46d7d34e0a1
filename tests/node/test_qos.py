"""Tests for the QoS gate server and the QoS-enabled testbed."""

import pytest

from repro.calibration import T_CYC_PS, paper_cluster_config
from repro.engine import AccessPhase, DesPhaseDriver, PhaseProgram
from repro.nic.mux import TrafficClass
from repro.nic.qos_gate import PriorityGateServer
from repro.node.cluster import ThymesisFlowSystem
from repro.node.qos import PriorityGate
from repro.obs import Observability, attribution_sidecar
from repro.sim import Simulator, Timeout


class TestPriorityGateServer:
    def test_grants_on_grid_one_per_opportunity(self):
        sim = Simulator()
        gate = PriorityGateServer(sim, interval=100)
        grants = []

        def proc():
            for _ in range(5):
                g = yield gate.request()
                grants.append(g)

        sim.process(proc())
        sim.run()
        assert all(g % 100 == 0 for g in grants)
        assert all(b - a >= 100 for a, b in zip(grants, grants[1:]))

    def test_priority_overtakes_waiting_bulk(self):
        """A late latency-sensitive arrival beats queued bulk requests."""
        sim = Simulator()
        gate = PriorityGateServer(sim, interval=1000)
        order = []

        def bulk(tag):
            g = yield gate.request(TrafficClass.BULK)
            order.append((tag, g))

        def sensitive():
            yield Timeout(sim, 500)  # arrives after the bulk queue forms
            g = yield gate.request(TrafficClass.LATENCY_SENSITIVE)
            order.append(("hot", g))

        for i in range(4):
            sim.process(bulk(f"b{i}"))
        sim.process(sensitive())
        sim.run()
        tags = [t for t, _ in sorted(order, key=lambda x: x[1])]
        # First opportunity (t=0) already went to b0; the sensitive
        # request takes the next one, ahead of b1..b3.
        assert tags[0] == "b0"
        assert tags[1] == "hot"

    def test_fifo_within_class(self):
        sim = Simulator()
        gate = PriorityGateServer(sim, interval=10)
        order = []

        def req(tag):
            g = yield gate.request(TrafficClass.NORMAL)
            order.append((g, tag))

        for i in range(5):
            sim.process(req(i))
        sim.run()
        assert [t for _, t in sorted(order)] == [0, 1, 2, 3, 4]

    def test_idle_gate_sleeps_until_request(self):
        sim = Simulator()
        gate = PriorityGateServer(sim, interval=10)
        got = []

        def late():
            yield Timeout(sim, 10_000)
            g = yield gate.request()
            got.append(g)

        sim.process(late())
        sim.run()
        assert got == [10_000]

    def test_class_counters(self):
        sim = Simulator()
        gate = PriorityGateServer(sim, interval=10)

        def proc():
            yield gate.request(TrafficClass.BULK)
            yield gate.request(TrafficClass.LATENCY_SENSITIVE)

        sim.process(proc())
        sim.run()
        assert gate.grants_by_class[TrafficClass.BULK] == 1
        assert gate.grants_by_class[TrafficClass.LATENCY_SENSITIVE] == 1
        assert gate.waiting() == 0


def _mixed_run(gate=None, period=200, obs=None):
    """One latency-sensitive prober + heavy bulk streamer, co-run."""
    system = ThymesisFlowSystem(paper_cluster_config(period=period), obs=obs, gate=gate)
    system.attach_or_raise()
    # Bulk outlasts the probe even under FIFO (probe accesses cost
    # ~W x interval there), so every probe sample sees contention.
    bulk_prog = PhaseProgram("bulk").add(
        AccessPhase("stream", n_lines=4000, concurrency=128, write_fraction=0.5)
    )
    probe_prog = PhaseProgram("probe").add(
        AccessPhase(
            "probe", n_lines=15, concurrency=1, compute_ps_per_line=200 * T_CYC_PS * 2
        )
    )
    bulk = DesPhaseDriver(system, bulk_prog, instance="bulk", traffic_class=TrafficClass.BULK)
    probe = DesPhaseDriver(
        system,
        probe_prog,
        instance="probe",
        instance_index=1,
        traffic_class=TrafficClass.LATENCY_SENSITIVE,
    )
    procs = [bulk.start(), probe.start()]
    system.sim.run()
    for proc in procs:
        if not proc.ok:
            _ = proc.value
    return probe.result, bulk.result


class TestQosSystem:
    def test_traced_priority_gate_tiles_every_request(self):
        """The priority gate is a stage, so it takes obs like any system."""
        obs = Observability(trace=True, metrics=True, attrib=True)
        _mixed_run(PriorityGate(), obs=obs)
        (point,) = attribution_sidecar(obs.tracer, metrics=obs.metrics)["points"]
        assert point["requests"] == 4000 + 15
        assert point["mismatched"] == 0

    def test_sensitive_latency_improves_with_qos(self):
        probe_fifo, _ = _mixed_run()
        probe_qos, _ = _mixed_run(PriorityGate())
        # Under FIFO the probe queues behind the saturated bulk window
        # (~W x interval); with priority it waits at most one grant.
        assert probe_qos.mean_latency_ps < 0.2 * probe_fifo.mean_latency_ps

    def test_bulk_throughput_barely_affected(self):
        _, bulk_fifo = _mixed_run()
        _, bulk_qos = _mixed_run(PriorityGate())
        # The probe consumes a tiny fraction of grant opportunities.
        assert bulk_qos.bandwidth_bytes_per_s == pytest.approx(
            bulk_fifo.bandwidth_bytes_per_s, rel=0.1
        )

    def test_qos_system_gate_matches_injector_timing(self):
        """Without competing classes, QoS and FIFO systems agree."""
        prog = PhaseProgram("w").add(
            AccessPhase("p", n_lines=1500, concurrency=128, write_fraction=0.5)
        )
        fifo_sys = ThymesisFlowSystem(paper_cluster_config(period=50))
        fifo_sys.attach_or_raise()
        fifo = DesPhaseDriver(fifo_sys, prog).run_to_completion()
        qos_sys = ThymesisFlowSystem(paper_cluster_config(period=50), gate=PriorityGate())
        qos_sys.attach_or_raise()
        qos = DesPhaseDriver(qos_sys, prog).run_to_completion()
        assert qos.mean_latency_ps == pytest.approx(fifo.mean_latency_ps, rel=0.05)
        assert qos.duration_ps == pytest.approx(fifo.duration_ps, rel=0.05)
