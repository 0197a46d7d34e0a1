"""Ablation: NIC packet prioritization (§IV-D insight), on the live DES.

A latency-sensitive prober co-runs with a bulk STREAM tenant that
saturates the delay gate at an elevated PERIOD.  FIFO arbitration
queues the prober behind the bulk window (~W grant slots); the
priority gate serves it at the next opportunity — while bulk
throughput is essentially unchanged.
"""

from __future__ import annotations

from repro.calibration import T_CYC_PS, paper_cluster_config
from repro.engine import AccessPhase, DesPhaseDriver, PhaseProgram
from repro.experiments.base import ExperimentResult
from repro.nic.mux import TrafficClass
from repro.node.cluster import ThymesisFlowSystem
from repro.node.qos import PriorityGate
from repro.units import US

__all__ = ["run"]

DEFAULT_PERIOD = 200


def _mixed_run(gate, period: int, bulk_lines: int, probe_lines: int) -> dict:
    system = ThymesisFlowSystem(paper_cluster_config(period=period), gate=gate)
    system.attach_or_raise()
    bulk_prog = PhaseProgram("bulk").add(
        AccessPhase("stream", n_lines=bulk_lines, concurrency=128, write_fraction=0.5)
    )
    probe_prog = PhaseProgram("probe").add(
        AccessPhase(
            "probe", n_lines=probe_lines, concurrency=1,
            compute_ps_per_line=period * T_CYC_PS * 2,
        )
    )
    bulk = DesPhaseDriver(system, bulk_prog, instance="bulk", traffic_class=TrafficClass.BULK)
    probe = DesPhaseDriver(
        system, probe_prog, instance="probe", instance_index=1,
        traffic_class=TrafficClass.LATENCY_SENSITIVE,
    )
    procs = [bulk.start(), probe.start()]
    system.sim.run()
    for proc in procs:
        if not proc.ok:
            _ = proc.value
    return {
        "probe_p50_us": probe.result.latencies.percentile(50) / US,
        "probe_p99_us": probe.result.latencies.percentile(99) / US,
        "bulk_gbs": bulk.result.bandwidth_bytes_per_s / 1e9,
    }


def run(
    period: int = DEFAULT_PERIOD, bulk_lines: int = 6000, probe_lines: int = 20
) -> ExperimentResult:
    """FIFO vs strict-priority gate arbitration under a bulk tenant."""
    measurements = {
        "fifo": _mixed_run(None, period, bulk_lines, probe_lines),
        "priority": _mixed_run(PriorityGate(), period, bulk_lines, probe_lines),
    }
    rows = [
        (
            name,
            round(m["probe_p50_us"], 2),
            round(m["probe_p99_us"], 2),
            round(m["bulk_gbs"], 3),
        )
        for name, m in measurements.items()
    ]
    fifo, prio = measurements["fifo"], measurements["priority"]
    checks = {
        "sensitive p50 cut >10x by priority": prio["probe_p50_us"]
        < 0.1 * fifo["probe_p50_us"],
        "sensitive p99 cut >5x by priority": prio["probe_p99_us"]
        < 0.2 * fifo["probe_p99_us"],
        "bulk throughput unchanged (within 10%)": abs(
            prio["bulk_gbs"] - fifo["bulk_gbs"]
        )
        / fifo["bulk_gbs"]
        < 0.10,
    }
    return ExperimentResult(
        experiment="ablation-qos",
        title=f"Gate arbitration under a saturating bulk tenant (PERIOD={period})",
        columns=("arbitration", "probe_p50_us", "probe_p99_us", "bulk_GB_s"),
        rows=rows,
        checks=checks,
        notes=(
            "Priority reorders who gets each grant opportunity; it creates no "
            "capacity, which is why bulk pays (almost) nothing for the "
            "sensitive tenant's protection."
        ),
    )
