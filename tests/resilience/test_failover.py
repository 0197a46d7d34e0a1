"""Lender failure domains: schedules, health, policies, determinism (S3)."""

import json

import pytest

from repro.calibration import paper_cluster_config
from repro.control.plane import HealthState
from repro.core.resilience import (
    EvacuationReplayer,
    FailoverPolicy,
    GrayFailureDram,
    HealthParams,
    HostCrash,
    LenderFailureSchedule,
    LenderOutage,
    failover_sweep,
    policy_by_name,
)
from repro.engine import DesPhaseDriver, Location
from repro.errors import ReproError
from repro.net.fabric import Fabric
from repro.node.multipair import BeyondRackDeployment
from repro.obs import Observability
from repro.sim import RngStreams, Simulator
from repro.units import microseconds, milliseconds
from repro.workloads.stream import StreamConfig, StreamWorkload

US = int(microseconds(1))


def outage(start_us, duration_us, kind="restart"):
    return LenderOutage(start_us * US, duration_us * US, kind)


class TestLenderFailureSchedule:
    def test_crash_covers_forever(self):
        o = outage(10, 0, "crash")
        assert o.end is None
        assert not o.covers(9 * US)
        assert o.covers(10 * US) and o.covers(10**15)

    def test_restart_window_half_open(self):
        o = outage(10, 5)
        assert o.covers(10 * US) and o.covers(14 * US)
        assert not o.covers(15 * US)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError, match="unknown outage kind"):
            LenderFailureSchedule(outages=(outage(1, 1, "meltdown"),))

    def test_crash_with_duration_rejected(self):
        with pytest.raises(ReproError, match="never recovers"):
            LenderFailureSchedule(outages=(LenderOutage(US, US, "crash"),))

    def test_zero_duration_restart_rejected(self):
        with pytest.raises(ReproError, match="duration > 0"):
            LenderFailureSchedule(outages=(LenderOutage(US, 0, "restart"),))

    def test_negative_start_rejected(self):
        with pytest.raises(ReproError, match="start >= 0"):
            LenderFailureSchedule(outages=(LenderOutage(-1, US, "restart"),))

    def test_unsorted_windows_rejected(self):
        with pytest.raises(ReproError, match="disjoint and ordered"):
            LenderFailureSchedule(outages=(outage(20, 5), outage(10, 5)))

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ReproError, match="disjoint and ordered"):
            LenderFailureSchedule(outages=(outage(10, 10), outage(15, 10)))

    def test_nothing_may_follow_a_crash(self):
        with pytest.raises(ReproError, match="disjoint and ordered"):
            LenderFailureSchedule(
                outages=(outage(10, 0, "crash"), outage(50, 5))
            )

    def test_gray_factor_validated(self):
        with pytest.raises(ReproError, match="gray_factor"):
            LenderFailureSchedule(gray_factor=0.5)

    def test_queries(self):
        sched = LenderFailureSchedule(
            outages=(outage(10, 5), outage(30, 5, "gray"), outage(50, 0, "crash"))
        )
        assert sched.down_at(12 * US) and not sched.down_at(32 * US)
        assert sched.gray_at(32 * US) and not sched.gray_at(12 * US)
        assert sched.next_up(12 * US) == 15 * US
        assert sched.next_up(60 * US) is None  # crashed: never up again
        assert sched.first_failure() == 10 * US
        # downtime in [0, 60us): 5us restart + 10us of the crash tail
        assert sched.total_downtime(60 * US) == 15 * US

    def test_single_crash_ignores_duration(self):
        sched = LenderFailureSchedule.single("crash", at=US, duration=5 * US)
        assert sched.outages[0].duration == 0

    def test_from_mtbf_is_seed_deterministic(self):
        def draw():
            stream = RngStreams(42, prefix="failover").get("failover.l0")
            return LenderFailureSchedule.from_mtbf(
                stream,
                mtbf_ps=int(milliseconds(1)),
                mttr_ps=int(microseconds(50)),
                horizon_ps=int(milliseconds(10)),
            )

        assert draw() == draw()
        assert len(draw().outages) >= 1

    def test_from_mtbf_crash_stops_at_first(self):
        stream = RngStreams(7).get("l0")
        sched = LenderFailureSchedule.from_mtbf(
            stream,
            mtbf_ps=int(microseconds(100)),
            mttr_ps=US,
            horizon_ps=int(milliseconds(100)),
            kind="crash",
        )
        assert len(sched.outages) == 1
        assert sched.outages[0].kind == "crash"

    def test_from_mtbf_validation(self):
        with pytest.raises(ReproError, match="positive"):
            LenderFailureSchedule.from_mtbf(None, 0, 1, 10)


class TestHealthParams:
    def test_first_missed_tick_lands_on_period_grid(self):
        hp = HealthParams(period_ps=20 * US)
        assert hp.first_missed_tick(30 * US) == 40 * US
        assert hp.first_missed_tick(40 * US) == 40 * US  # deadline itself
        assert hp.first_missed_tick(0) == 20 * US  # k >= 1

    def test_detection_after_dead_misses(self):
        hp = HealthParams(period_ps=20 * US, suspect_misses=1, dead_misses=3)
        o = outage(30, 0, "crash")
        assert hp.miss_ticks(o) == [40 * US, 60 * US, 80 * US]
        assert hp.suspect_time(o) == 40 * US
        assert hp.detection_time(o) == 80 * US

    def test_blip_is_not_detected(self):
        hp = HealthParams(period_ps=20 * US, dead_misses=3)
        # Recovers after 2 missed ticks: rides out as a blip.
        o = outage(30, 40)
        assert hp.detection_time(o) is None
        assert hp.suspect_time(o) == 40 * US

    def test_validation(self):
        with pytest.raises(ReproError):
            HealthParams(period_ps=0)
        with pytest.raises(ReproError):
            HealthParams(suspect_misses=3, dead_misses=1)


class TestGrayFailureDram:
    def _dram(self, sched):
        return GrayFailureDram(
            paper_cluster_config().lender.dram, sched, name="l0.dram"
        )

    def test_clean_outside_gray_windows(self):
        sched = LenderFailureSchedule.single("gray", at=100 * US, duration=10 * US)
        gray = self._dram(sched)
        from repro.mem.dram import DramModule

        plain = DramModule(paper_cluster_config().lender.dram, name="l0.dram")
        assert gray.access(64, 0) == plain.access(64, 0)
        assert gray.gray_accesses == 0

    def test_gray_window_inflates_service(self):
        sched = LenderFailureSchedule.single(
            "gray", at=0, duration=10 * US, gray_factor=4.0
        )
        gray = self._dram(sched)
        clean = self._dram(LenderFailureSchedule())
        assert gray.access(64, 0) > clean.access(64, 0)
        assert gray.gray_accesses == 1 and gray.reads == 1


class TestEvacuationReplayer:
    def _build(self, n_pages=8):
        sim = Simulator()
        fabric = Fabric(paper_cluster_config().link)
        for node in ("b0", "tor", "l1"):
            fabric.add_node(node)
        fabric.connect("b0", "tor")
        fabric.connect("tor", "l1")
        replayer = EvacuationReplayer(sim, fabric, "b0", "l1", n_pages=n_pages)
        return sim, replayer

    def test_replays_every_page_in_order(self):
        sim, replayer = self._build()
        replayer.start()
        sim.run()
        assert replayer.done and replayer.pages_sent == 8
        arrivals = [row["arrival_ps"] for row in replayer.manifest()]
        assert arrivals == sorted(arrivals)
        assert replayer.finished_at == arrivals[-1]

    def test_same_build_is_byte_identical(self):
        manifests = []
        for _ in range(2):
            sim, replayer = self._build()
            replayer.start(delay=5 * US)
            sim.run()
            manifests.append(json.dumps(replayer.manifest(), sort_keys=True))
        assert manifests[0] == manifests[1]

    def test_snapshot_mid_replay_restores_bit_identical(self):
        sim_a, rep_a = self._build(n_pages=16)
        rep_a.start()
        sim_a.run(until=rep_a.fabric.transmit(4096, "b0", "l1", 0) * 3)
        assert 0 < rep_a.pages_sent < 16  # genuinely mid-flight
        blob = sim_a.snapshot(roots={"rep": rep_a})
        sim_a.run()

        sim_b = Simulator()
        rep_b = sim_b.restore(blob)["rep"]
        sim_b.run()
        assert rep_b.manifest() == rep_a.manifest()
        assert rep_b.finished_at == rep_a.finished_at

    def test_double_start_rejected(self):
        _, replayer = self._build()
        replayer.start()
        with pytest.raises(ReproError, match="already started"):
            replayer.start()

    def test_validation(self):
        sim, replayer = self._build()
        with pytest.raises(ReproError, match="at least one page"):
            EvacuationReplayer(sim, replayer.fabric, "b0", "l1", n_pages=0)
        with pytest.raises(ReproError, match="page_bytes"):
            EvacuationReplayer(
                sim, replayer.fabric, "b0", "l1", n_pages=1, page_bytes=0
            )


class TestPolicyRegistry:
    def test_by_name(self):
        for name in ("crash", "quarantine", "evacuate"):
            policy = policy_by_name(name)
            assert isinstance(policy, FailoverPolicy) and policy.name == name

    def test_unknown_rejected(self):
        with pytest.raises(ReproError, match="unknown failover policy"):
            policy_by_name("pray")


def run_deployment(policy_name, schedule, n_pairs=2, n_lines=10_000):
    """One seeded failure run; returns (deployment, drivers, procs)."""
    deployment = BeyondRackDeployment(
        n_pairs,
        lender_assignment=[i % 2 for i in range(n_pairs)],
        cluster=paper_cluster_config(seed=77),
        n_lenders=2,
        lender_schedules={0: schedule},
        failover=policy_by_name(policy_name),
        health=HealthParams(period_ps=20 * US),
    )
    deployment.attach_all()
    deployment.arm_failover()
    drivers = [
        DesPhaseDriver(
            pair,
            StreamWorkload(StreamConfig(n_elements=n_lines)).program(Location.REMOTE),
            instance=f"pair{idx}",
        )
        for idx, pair in enumerate(deployment.pairs)
    ]
    procs = [driver.start() for driver in drivers]
    deployment.sim.run()
    return deployment, drivers, procs


CRASH_AT_30US = LenderFailureSchedule.single("crash", at=30 * US)


class TestDeploymentFailover:
    def test_crash_policy_checkstops_affected_borrower(self):
        deployment, _, procs = run_deployment("crash", CRASH_AT_30US)
        assert not procs[0].ok and isinstance(procs[0]._exc, HostCrash)  # noqa: SLF001
        assert procs[1].ok  # b1 is on the surviving lender
        plane = deployment.plane
        assert plane.health("l0") is HealthState.DEAD
        assert plane.health("l1") is HealthState.HEALTHY
        events = [e["event"] for e in deployment.coordinator.events]
        assert events == ["lender_dead", "borrower_crashed"]

    def test_quarantine_policy_survives_on_local_memory(self):
        deployment, drivers, procs = run_deployment("quarantine", CRASH_AT_30US)
        assert all(proc.ok for proc in procs)
        pair = deployment.pairs[0]
        assert pair.quarantined_at is not None
        assert pair.stats.counters["degraded.accesses"] > 0
        assert drivers[0].result is not None  # finished its burst locally

    def test_evacuation_resumes_on_survivor(self):
        deployment, drivers, procs = run_deployment("evacuate", CRASH_AT_30US)
        assert all(proc.ok for proc in procs)
        failover = deployment.pairs[0].availability
        assert failover.evacuated_to == "l1"
        assert failover.pages_evacuated > 0
        assert failover.evacuation_stall_ps > 0
        # Detection: crash at 30us, ticks at 40/60/80us -> 50us of lag.
        assert failover.detect_lag_ps == 50 * US
        events = [e["event"] for e in deployment.coordinator.events]
        assert events == ["lender_dead", "evacuation_started", "evacuation_done"]
        # The surrendered window was re-reserved on the survivor.
        assert [r.lender for r in deployment.plane.reservations_for("b0")] == [
            "l1"
        ]

    def test_blip_is_ridden_out_without_failover(self):
        blip = LenderFailureSchedule.single("restart", at=30 * US, duration=30 * US)
        deployment, _, procs = run_deployment("evacuate", blip)
        assert all(proc.ok for proc in procs)
        failover = deployment.pairs[0].availability
        assert failover.blip_stalls > 0
        assert failover.evacuated_to is None
        assert deployment.coordinator.events == []
        assert deployment.plane.health("l0") is HealthState.HEALTHY

    def test_restart_after_detection_rejoins_as_restarting(self):
        long_outage = LenderFailureSchedule.single(
            "restart", at=30 * US, duration=200 * US
        )
        deployment, _, procs = run_deployment("evacuate", long_outage)
        assert all(proc.ok for proc in procs)
        events = [e["event"] for e in deployment.coordinator.events]
        assert "evacuation_done" in events and "lender_restarting" in events
        # Repaired and renewing: back to HEALTHY, eligible for placement.
        assert deployment.plane.health("l0") is HealthState.HEALTHY

    def test_event_log_is_byte_identical_across_reruns(self):
        logs = []
        for _ in range(2):
            deployment, _, _ = run_deployment("evacuate", CRASH_AT_30US)
            logs.append(json.dumps(deployment.coordinator.events, sort_keys=True))
        assert logs[0] == logs[1]

    @staticmethod
    def _observed_evacuation():
        """One pair leaves l0 (crashed at 40us) for l1, metrics on."""
        obs = Observability(trace=False, metrics=True)
        deployment = BeyondRackDeployment(
            1,
            cluster=paper_cluster_config(seed=77),
            n_lenders=2,
            lender_schedules={0: LenderFailureSchedule.single("crash", at=40 * US)},
            failover=policy_by_name("evacuate"),
            health=HealthParams(period_ps=20 * US),
            obs=obs,
        )
        deployment.attach_all()
        deployment.arm_failover()
        program = StreamWorkload(StreamConfig(n_elements=10_000)).program(Location.REMOTE)
        proc = DesPhaseDriver(deployment.pairs[0], program, instance="pair0").start()
        deployment.sim.run()
        deployment.finish_obs()
        assert proc.ok
        assert deployment.pairs[0].availability.evacuated_to == "l1"
        return deployment, obs

    def test_evacuation_folds_both_lender_buses(self):
        # The pair leaves l0 for l1 mid-run; the folded bus queue-wait
        # histogram must hold every transfer either bus served.
        deployment, obs = self._observed_evacuation()
        served = [node.dram.bus.transfers for node in deployment.lender_nodes.values()]
        assert all(n > 0 for n in served)
        folded = obs.metrics.histograms["lender.bus_queue_wait_ps"]
        assert folded.count == sum(served)

    def test_evacuated_timeline_reads_the_new_lender_bus(self):
        # After evacuation the bandwidth probe must follow the pair to
        # l1 instead of reading the dead l0's idle bus.
        deployment, obs = self._observed_evacuation()
        (done_at,) = [
            e["at_ps"]
            for e in deployment.coordinator.events
            if e["event"] == "evacuation_done"
        ]
        after = [row for row in obs.timeline.rows if row["t_ps"] > done_at]
        assert after
        assert deployment.lender_nodes[1].dram.bus.transfers > 0
        assert sum(row["bandwidth_bytes_per_s"] > 0 for row in after) > len(after) // 2
        assert all(row["bandwidth_bytes_per_s"] >= 0 for row in obs.timeline.rows)
        assert any(row["lender_bus_backlog_ps"] > 0 for row in after)


class TestSweepDeterminism:
    def _sweep(self, workers):
        return failover_sweep(
            policies=("crash", "quarantine", "evacuate"),
            kinds=("crash",),
            n_pairs=2,
            n_lines=10_000,
            seed=1234,
            workers=workers,
        )

    def test_workers_do_not_change_results(self):
        serial = self._sweep(workers=1)
        fanned = self._sweep(workers=4)
        assert serial.points == fanned.points
        assert serial.events == fanned.events

    def test_survival_rates_by_policy(self):
        report = self._sweep(workers=1)
        assert report.survival_rate("crash") == pytest.approx(0.5)
        assert report.survival_rate("quarantine") == 1.0
        assert report.survival_rate("evacuate") == 1.0
        outcomes = {p.policy: p.outcome for p in report.points if p.lender == "l0"}
        assert outcomes == {
            "crash": "crashed",
            "quarantine": "degraded",
            "evacuate": "evacuated",
        }


class TestBlameInvariant:
    def test_failover_blame_tiles_exactly(self):
        from repro.core.resilience.failover import _failover_point
        from repro.obs import Observability
        from repro.obs.attrib import extract_attribution

        obs = Observability(trace=True, metrics=True, attrib=True)
        output = _failover_point(
            "evacuate",
            "crash",
            mtbf_ms=0.0,
            mttr_ms=0.5,
            n_pairs=2,
            n_lenders=2,
            n_lines=10_000,
            seed=99,
            obs=obs,
        )
        assert output["rows"][0]["outcome"] == "evacuated"
        results = extract_attribution(obs.tracer)
        assert results and all(r.mismatched == 0 for r in results)
        resources = set()
        for r in results:
            resources.update(r.resources_ps)
        assert "failover.detect" in resources
        assert "failover.evacuation" in resources
