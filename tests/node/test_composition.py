"""Datapath stages compose: ARQ + overload control + lender failover on a fabric.

Selective-repeat ARQ over a lossy link rides the shared-fabric legs of a
beyond-rack deployment, with transaction deadlines and a circuit breaker
armed, while lender 0 crashes mid-run.  Under both surviving failover
policies the borrower on the dead lender lives on, the lost packets are
retransmitted, and the attribution sidecar tiles every request.
"""

import json

import pytest

from repro.calibration import paper_cluster_config
from repro.config import FaultConfig, TransportConfig
from repro.core.overload import OverloadConfig
from repro.core.resilience import (
    HealthParams,
    LenderFailureSchedule,
    LinkBlackout,
    LinkFailureSchedule,
    policy_by_name,
)
from repro.engine import AccessPhase, DesPhaseDriver, Location, PhaseProgram
from repro.node.cluster import ThymesisFlowSystem
from repro.node.multipair import BeyondRackDeployment
from repro.node.reliable import ArqDelivery
from repro.obs import Observability, attribution_sidecar
from repro.units import US, microseconds, milliseconds
from repro.workloads.stream import StreamConfig, StreamWorkload


def run(policy):
    cluster = (
        paper_cluster_config(seed=11)
        .with_fault(FaultConfig(loss_rate=0.01))
        .with_transport(TransportConfig(selective_repeat=True, max_retries=8))
    )
    obs = Observability(trace=True, metrics=True, attrib=True)
    deployment = BeyondRackDeployment(
        2,
        lender_assignment=[0, 1],
        cluster=cluster,
        n_lenders=3,
        lender_schedules={0: LenderFailureSchedule.single("crash", at=30 * US)},
        failover=policy_by_name(policy),
        health=HealthParams(period_ps=20 * US),
        obs=obs,
        delivery=ArqDelivery(
            overload=OverloadConfig(deadline_ps=milliseconds(1), breaker_enabled=True)
        ),
    )
    deployment.attach_all()
    deployment.arm_failover()
    drivers = [
        DesPhaseDriver(
            pair,
            StreamWorkload(StreamConfig(n_elements=3000)).program(Location.REMOTE),
            instance=f"pair{idx}",
        )
        for idx, pair in enumerate(deployment.pairs)
    ]
    procs = [driver.start() for driver in drivers]
    deployment.sim.run()
    deployment.finish_obs()
    sidecar = attribution_sidecar(obs.tracer, experiment="composition", metrics=obs.metrics)
    return deployment, procs, sidecar


@pytest.mark.parametrize("policy", ["quarantine", "evacuate"])
def test_arq_overload_failover_on_fabric(policy):
    deployment, procs, sidecar = run(policy)
    for proc in procs:
        assert proc.ok, proc._exc  # noqa: SLF001
    b0 = deployment.pairs[0]
    if policy == "quarantine":
        assert b0.quarantined
    else:
        assert b0.availability.evacuated_to in ("l1", "l2")
        assert b0.mode == "remote"
    assert sum(pair.delivery.transport.stats.retransmissions for pair in deployment.pairs) > 0
    assert all(pair.delivery.overload.breaker is not None for pair in deployment.pairs)
    events = [e["event"] for e in deployment.coordinator.events]
    assert events[0] == "lender_dead"
    assert sidecar["points"]
    assert all(point["mismatched"] == 0 for point in sidecar["points"])


@pytest.mark.parametrize("policy", ["quarantine", "evacuate"])
def test_same_seed_is_identical(policy):
    first, _, sidecar_a = run(policy)
    second, _, sidecar_b = run(policy)
    assert first.coordinator.events == second.coordinator.events
    assert json.dumps(sidecar_a, sort_keys=True) == json.dumps(sidecar_b, sort_keys=True)


def test_traced_blackout_tiles_every_request():
    obs = Observability(trace=True, metrics=True, attrib=True)
    blackout = LinkBlackout(LinkFailureSchedule(outages=((microseconds(20), microseconds(10)),)))
    system = ThymesisFlowSystem(
        paper_cluster_config(period=1), obs=obs, obs_label="blackout", availability=blackout
    )
    system.attach_or_raise()
    program = PhaseProgram("burst").add(AccessPhase("stream", n_lines=2000, concurrency=64))
    DesPhaseDriver(system, program).run_to_completion()
    (point,) = attribution_sidecar(obs.tracer, metrics=obs.metrics)["points"]
    assert blackout.stalls_observed > 0
    assert point["requests"] == 2000
    assert point["mismatched"] == 0
