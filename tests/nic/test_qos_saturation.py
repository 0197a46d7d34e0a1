"""QoS gate + testbed under saturating load with admission control.

Satellite coverage for :mod:`repro.nic.qos_gate` and
:mod:`repro.node.qos`: exact shed accounting, class-ordered shedding
(bulk first, latency-sensitive last), shed waiters failing at their
resume point, the null-admission path staying bit-identical, and
worker-pool runs reproducing serial counters byte for byte.
"""

import pytest

from repro.calibration import paper_cluster_config
from repro.control.qos import admission_weights
from repro.core.overload import PriorityAdmission, QueueDepthAdmission
from repro.engine import AccessPhase, DesPhaseDriver, PhaseProgram
from repro.errors import OverloadShed
from repro.nic.mux import TrafficClass
from repro.nic.qos_gate import PriorityGateServer
from repro.node.cluster import ThymesisFlowSystem
from repro.node.qos import PriorityGate
from repro.perf import PointTask, SweepExecutor
from repro.sim import RngStreams, Simulator, Timeout


def qos_saturation_point(seed=0, n_arrivals=64):
    """Saturating mixed-class scenario; returns plain-dict counters.

    Module-level so :class:`SweepExecutor` worker processes can import
    it by reference.  Arrivals average one per 400 ps against a
    1000 ps grant interval — a 2.5x overload — so the admission policy
    must shed; everything is drawn from named, seeded RNG streams.
    """
    sim = Simulator()
    gate = PriorityGateServer(
        sim,
        interval=1_000,
        admission=QueueDepthAdmission(sojourn_target_ps=3_500),
    )
    rng = RngStreams(seed).get("qos.saturation")
    outcomes = {"granted": 0, "shed": 0}
    grants = []

    def arrival(traffic_class):
        try:
            grant = yield gate.request(traffic_class)
        except OverloadShed:
            outcomes["shed"] += 1
        else:
            outcomes["granted"] += 1
            grants.append(grant)

    def feeder():
        for _ in range(n_arrivals):
            cls = TrafficClass(int(rng.integers(0, 3)))
            sim.process(arrival(cls))
            yield Timeout(sim, int(rng.integers(0, 800)))

    sim.process(feeder())
    sim.run()
    return {
        "granted": outcomes["granted"],
        "shed": outcomes["shed"],
        "grants_by_class": {c.name: gate.grants_by_class[c] for c in TrafficClass},
        "shed_by_class": {c.name: gate.shed_by_class[c] for c in TrafficClass},
        "last_grant": max(grants) if grants else -1,
    }


class TestGateSaturation:
    def test_exact_shed_count_at_the_sojourn_target(self):
        """10 simultaneous bulk arrivals, target 4.5 intervals: 5 shed."""
        sim = Simulator()
        gate = PriorityGateServer(
            sim, interval=1_000, admission=QueueDepthAdmission(4_500)
        )
        reqs = [gate.request(TrafficClass.BULK) for _ in range(10)]
        # Arrival i estimates i x interval of sojourn: 0..4000 admit
        # (inclusive target), 5000.. shed — and with nothing lower-value
        # queued the newcomer itself is the victim.
        assert gate.shed_by_class[TrafficClass.BULK] == 5
        assert gate.waiting() == 5
        sim.run()
        assert [r.value for r in reqs[:5]] == [0, 1_000, 2_000, 3_000, 4_000]
        for shed in reqs[5:]:
            assert shed.triggered
            with pytest.raises(OverloadShed):
                _ = shed.value
        assert gate.grants_by_class[TrafficClass.BULK] == 5

    def test_victim_is_newest_waiter_of_the_lowest_class(self):
        """At the depth cap, a hot arrival displaces queued bulk work."""
        sim = Simulator()
        gate = PriorityGateServer(
            sim,
            interval=1_000,
            admission=QueueDepthAdmission(10**9, max_depth=3),
        )
        bulk = [gate.request(TrafficClass.BULK) for _ in range(3)]
        hot = gate.request(TrafficClass.LATENCY_SENSITIVE)
        # bulk[2] (the newest bulk waiter) was shed in hot's favour.
        assert gate.shed_by_class[TrafficClass.BULK] == 1
        assert gate.shed_by_class[TrafficClass.LATENCY_SENSITIVE] == 0
        with pytest.raises(OverloadShed):
            _ = bulk[2].value
        sim.run()
        # The survivor set is served priority-first on the grant grid.
        assert hot.value == 0
        assert [bulk[0].value, bulk[1].value] == [1_000, 2_000]

    def test_priority_admission_sheds_bulk_before_sensitive(self):
        """Same backlog, same instant: bulk shed, sensitive admitted."""
        sim = Simulator()
        gate = PriorityGateServer(
            sim,
            interval=1_000,
            admission=PriorityAdmission(8_000, admission_weights()),
        )
        for _ in range(4):
            gate.request(TrafficClass.NORMAL)  # sojourns 0..3000 <= 4000
        bulk = gate.request(TrafficClass.BULK)  # 4000 > bulk's 2000 target
        hot = gate.request(TrafficClass.LATENCY_SENSITIVE)
        assert gate.shed_by_class == {
            TrafficClass.LATENCY_SENSITIVE: 0,
            TrafficClass.NORMAL: 0,
            TrafficClass.BULK: 1,
        }
        with pytest.raises(OverloadShed):
            _ = bulk.value
        sim.run()
        assert hot.value == 0  # overtakes the queued normal traffic

    def test_shed_waiter_fails_at_its_resume_point(self):
        """A queued process sees OverloadShed raised mid-wait, not lost."""
        sim = Simulator()
        gate = PriorityGateServer(
            sim,
            interval=1_000_000,
            admission=QueueDepthAdmission(10**9, max_depth=1),
        )
        caught = []

        def bulk_proc():
            try:
                yield gate.request(TrafficClass.BULK)
            except OverloadShed:
                caught.append(sim.now)

        def hot_proc():
            yield Timeout(sim, 10)
            yield gate.request(TrafficClass.LATENCY_SENSITIVE)

        sim.process(bulk_proc())
        sim.process(bulk_proc())
        sim.process(hot_proc())
        sim.run()
        # One bulk took the t=0 grant; the other was displaced the
        # instant the hot request arrived against the depth cap.
        assert caught == [10]

    def test_saturation_counters_are_seed_deterministic(self):
        a, b = qos_saturation_point(seed=7), qos_saturation_point(seed=7)
        assert a == b
        assert a["shed"] > 0 and a["granted"] > 0
        assert qos_saturation_point(seed=8) != a

    def test_worker_pool_reproduces_serial_counters(self):
        """workers=N sheds the same transactions as the serial run."""
        tasks = [
            PointTask(
                key=f"qos-sat/{seed}",
                fn=qos_saturation_point,
                kwargs={"seed": seed},
            )
            for seed in range(4)
        ]
        serial = SweepExecutor(workers=1).map(tasks)
        parallel = SweepExecutor(workers=3).map(tasks)
        assert serial == parallel
        assert any(point["shed"] > 0 for point in serial)


class TestQosSystemAdmission:
    def test_null_admission_path_is_bit_identical(self):
        """An admission policy that never fires must not move a single
        picosecond — the overload hooks are pure overhead-free guards."""

        def run(admission):
            system = ThymesisFlowSystem(
                paper_cluster_config(period=50), gate=PriorityGate(admission=admission)
            )
            system.attach_or_raise()
            prog = PhaseProgram("w").add(
                AccessPhase("p", n_lines=800, concurrency=64, write_fraction=0.5)
            )
            result = DesPhaseDriver(system, prog).run_to_completion()
            return result, system

        plain, _ = run(None)
        guarded, system = run(QueueDepthAdmission(10**15))
        assert guarded.mean_latency_ps == plain.mean_latency_ps
        assert guarded.duration_ps == plain.duration_ps
        assert sum(system.gate.server.shed_by_class.values()) == 0
