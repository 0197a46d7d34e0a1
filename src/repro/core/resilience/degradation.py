"""Graceful degradation under packet loss: the crash/degrade boundary.

The paper's resilience story (section IV-C) is binary: either the
stack attaches and runs, or the FPGA is not detected and nothing
works.  With a lossy link and a reliable transport
(:mod:`repro.net.faults`, :mod:`repro.nic.transport`) the middle
ground appears: losses are absorbed by retransmission at a goodput and
tail-latency cost, until a burst outlives the retry budget — at which
point the borrower either crashes (ThymesisFlow's actual behavior: an
unanswered load becomes a checkstop) or, with graceful degradation
enabled, quarantines the remote window and falls back to local memory.

:func:`loss_resilience_sweep` walks a loss-rate ladder and reports,
per point: survival outcome, goodput, p99 latency inflation,
retransmission counters, and the switchover stall when degradation
engaged.  Loss draws come from named RNG streams, so identical seeds
reproduce identical retransmission counts — the chaos-smoke CI gate
relies on this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.calibration import paper_cluster_config
from repro.config import FaultConfig, TransportConfig
from repro.core.resilience.failures import HostCrash
from repro.node.reliable import ReliableThymesisFlowSystem
from repro.perf import PointTask, SweepExecutor, derive_point_seed

__all__ = [
    "LossResiliencePoint",
    "LossResilienceReport",
    "loss_resilience_sweep",
]

#: Outcome labels.
OK = "ok"
CRASHED = "crashed"
DEGRADED = "degraded"


@dataclass(frozen=True)
class LossResiliencePoint:
    """Outcome of one loss-rate level."""

    loss_rate: float
    retries: int
    outcome: str  # "ok" | "crashed" | "degraded"
    goodput_bytes_per_s: float  # 0.0 when the run did not complete
    latency_p99_ps: float  # NaN when no transaction completed
    retransmissions: int
    timeouts: int
    nacks: int
    corrupt_drops: int
    dup_suppressed: int
    exhausted: int
    switchover_ps: Optional[int]  # degraded runs: detection stall
    degraded_accesses: int

    @property
    def survived(self) -> bool:
        """True unless the borrower host crashed."""
        return self.outcome != CRASHED


@dataclass
class LossResilienceReport:
    """Full loss-ladder series at one retry budget."""

    points: List[LossResiliencePoint]
    degraded_mode: bool

    def clean_point(self) -> Optional[LossResiliencePoint]:
        """The loss = 0 reference, if the ladder includes one."""
        for p in self.points:
            if p.loss_rate == 0.0:
                return p
        return None

    def failure_boundary(self) -> float:
        """Smallest loss rate whose outcome was not plain ``ok``.

        Returns ``inf`` when every level survived undegraded.  With
        ``degraded_mode`` the boundary marks quarantine instead of a
        crash — toggling the mode moves the *meaning* of the boundary,
        not its location (the transport gives up at the same point).
        """
        bad = [p.loss_rate for p in self.points if p.outcome != OK]
        return min(bad) if bad else float("inf")

    def total_retransmissions(self) -> int:
        """Ladder-wide retransmission count."""
        return sum(p.retransmissions for p in self.points)


def default_loss_ladder(loss: float) -> tuple:
    """The ladder swept for a requested base *loss* rate.

    Starts at a clean reference, walks decades up from *loss*, and
    always ends in the extreme-loss regime (0.5, 0.9) where the retry
    budget is beaten by i.i.d. odds alone — with small i.i.d. rates a
    budget of N dies with probability ``loss**(N+1)``, so the
    crash/degrade boundary only appears at drastic rates (or under
    Gilbert-Elliott bursts, which beat the budget at far lower mean
    loss).
    """
    ladder = [0.0]
    step = loss
    while 0.0 < step < 0.5:
        ladder.append(step)
        step *= 10.0
    for extreme in (0.5, 0.9):
        if extreme not in ladder:
            ladder.append(extreme)
    return tuple(ladder)


def _loss_point(
    loss: float,
    retries: int,
    degraded_mode: bool,
    seed: int,
    n_lines: int,
    corrupt_fraction: float,
    duplicate_fraction: float,
    selective_repeat: bool,
    obs=None,
) -> dict:
    """Run one loss level; module-level so worker processes can run it.

    Returns the :class:`LossResiliencePoint` fields as plain JSON data
    (the executor's contract) so results round-trip through the result
    cache.
    """
    from repro.engine import AccessPhase, DesPhaseDriver, PhaseProgram

    fault = FaultConfig(
        loss_rate=loss,
        corrupt_rate=loss * corrupt_fraction,
        duplicate_rate=loss * duplicate_fraction,
    )
    transport = TransportConfig(max_retries=retries, selective_repeat=selective_repeat)
    config = paper_cluster_config(seed=seed).with_fault(fault).with_transport(transport)
    system = ReliableThymesisFlowSystem(
        config, obs=obs, degraded_mode=degraded_mode, faults_armed=False
    )
    system.attach_or_raise()
    system.arm_faults()
    program = PhaseProgram("chaos").add(
        AccessPhase("stream", n_lines=n_lines, concurrency=128, write_fraction=0.5)
    )
    driver = DesPhaseDriver(system, program)
    proc = driver.start()
    system.sim.run()
    crashed = not proc.ok and isinstance(proc._exc, HostCrash)  # noqa: SLF001
    if not proc.ok and not crashed:
        _ = proc.value  # unexpected failure: surface it
    if crashed:
        outcome = CRASHED
    elif system.quarantined:
        outcome = DEGRADED
    else:
        outcome = OK
    stats = system.transport.stats
    latencies = driver.result.latencies if proc.ok else None
    if obs is not None:
        obs.finish_system(system)
    return {
        "loss_rate": loss,
        "retries": retries,
        "outcome": outcome,
        "goodput_bytes_per_s": (
            driver.result.bandwidth_bytes_per_s if proc.ok else 0.0
        ),
        "latency_p99_ps": (
            latencies.percentile(99)
            if latencies is not None and len(latencies)
            else float("nan")
        ),
        "retransmissions": stats.retransmissions,
        "timeouts": stats.timeouts,
        "nacks": stats.nacks,
        "corrupt_drops": stats.corrupt_drops,
        "dup_suppressed": stats.dup_suppressed,
        "exhausted": stats.exhausted,
        "switchover_ps": system.switchover_ps,
        "degraded_accesses": int(system.stats.counters.get("degraded.accesses", 0)),
    }


def loss_resilience_sweep(
    loss_rates: Sequence[float],
    retries: int = 4,
    degraded_mode: bool = False,
    seed: int = 1234,
    n_lines: int = 4000,
    corrupt_fraction: float = 0.25,
    duplicate_fraction: float = 0.125,
    selective_repeat: bool = False,
    obs=None,
    workers: int = 1,
    cache=None,
) -> LossResilienceReport:
    """Walk the loss ladder on the reliable DES testbed.

    Each level attaches over a clean link, arms the fault models, and
    drives a 128-wide streaming burst of *n_lines* transactions.
    Corruption and duplication rates ride along proportionally to the
    loss rate (``corrupt_fraction``/``duplicate_fraction``), so one
    knob exercises the whole fault taxonomy.

    Loss levels are independent runs, so the ladder rides the
    :mod:`repro.perf` executor: each level's RNG root derives from
    ``(seed, point key)`` — never from worker identity or execution
    order — so serial (``workers=1``) and parallel runs produce
    bit-identical ladders, and a *cache* can serve unchanged levels
    from disk.  Threading *obs* through forces inline, uncached
    execution (spans cannot cross processes).
    """
    keyed = [
        (
            loss,
            f"loss-resilience/loss={loss!r}/retries={retries}"
            f"/degraded={degraded_mode}/sr={selective_repeat}",
        )
        for loss in loss_rates
    ]
    if obs is not None:
        rows = [
            _loss_point(
                loss,
                retries,
                degraded_mode,
                derive_point_seed(seed, key),
                n_lines,
                corrupt_fraction,
                duplicate_fraction,
                selective_repeat,
                obs=obs,
            )
            for loss, key in keyed
        ]
    else:
        tasks = [
            PointTask(
                key=key,
                fn=_loss_point,
                kwargs={
                    "loss": loss,
                    "retries": retries,
                    "degraded_mode": degraded_mode,
                    "seed": derive_point_seed(seed, key),
                    "n_lines": n_lines,
                    "corrupt_fraction": corrupt_fraction,
                    "duplicate_fraction": duplicate_fraction,
                    "selective_repeat": selective_repeat,
                },
            )
            for loss, key in keyed
        ]
        rows = SweepExecutor(workers=workers, cache=cache).map(tasks)
    points = [LossResiliencePoint(**row) for row in rows]
    return LossResilienceReport(points=points, degraded_mode=degraded_mode)
