"""Lender failure domains: schedules, health checking, failover policies.

The loss-resilience layer makes the *link* survivable (loss + ARQ +
quarantine); this module makes the **lender host** a first-class
failure domain, the way rack-scale disaggregation work (DRackSim,
Clio) treats remote-node failure: detected by a health-checked control
plane, recovered by policy, never silently absorbed.

Three layers live here:

* :class:`LenderFailureSchedule` — deterministic lender-level fault
  injection on :class:`~repro.core.resilience.failures.LinkFailureSchedule`'s
  pattern: *crash* (down forever), *restart* (down for a repair window),
  and *gray* (the lender heartbeats normally while its memory bus
  silently serves at a degraded rate).  Schedules are either explicit
  or drawn from a named RNG stream (:meth:`LenderFailureSchedule.from_mtbf`),
  so identical seeds reproduce identical outage sequences.
* :class:`HealthParams` — the lease/heartbeat discipline.  The control
  plane marks a lender SUSPECT after ``suspect_misses`` consecutive
  missed heartbeats and DEAD after ``dead_misses``; both transition
  times are pure functions of the schedule, so the datapath and the
  health monitor agree on the detection instant without event-ordering
  hazards.
* :class:`FailoverPolicy` — what happens to the borrowers of a DEAD
  lender: :class:`CrashBorrowerPolicy` (the paper's checkstop
  baseline), :class:`QuarantinePolicy` (local fallback, reusing the
  degradation machinery of :mod:`repro.core.resilience.degradation`),
  or :class:`EvacuationPolicy` (re-reserve on a surviving lender via
  the control plane's :class:`~repro.control.allocation.AllocationPolicy`
  and replay the window's touched pages over the shared fabric at real
  simulated cost, via :class:`EvacuationReplayer`).

The replayer is a callback-driven state machine — no generators — so a
standalone evacuation snapshots and restores bit-identically through
:meth:`~repro.sim.core.Simulator.snapshot`.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.mem.dram import DramModule
from repro.perf import PointTask, SweepExecutor, derive_point_seed
from repro.units import Duration, Time, microseconds, milliseconds

__all__ = [
    "LENDER_FAILURE_KINDS",
    "LenderOutage",
    "LenderFailureSchedule",
    "HealthParams",
    "GrayFailureDram",
    "FailoverPolicy",
    "CrashBorrowerPolicy",
    "QuarantinePolicy",
    "EvacuationPolicy",
    "EvacuationReplayer",
    "FailoverPoint",
    "FailoverReport",
    "failover_sweep",
    "policy_by_name",
]

#: Recognized lender failure kinds.
LENDER_FAILURE_KINDS = ("crash", "restart", "gray")

#: Outcome labels of one borrower in a failover run.
OK = "ok"
CRASHED = "crashed"
DEGRADED = "degraded"
EVACUATED = "evacuated"

#: Default page granularity of an evacuation replay.
DEFAULT_PAGE_BYTES = 4096


@dataclass(frozen=True)
class LenderOutage:
    """One lender-level failure window.

    Attributes
    ----------
    start:
        When the failure begins.
    duration:
        Repair window (``restart``) or degraded window (``gray``).  A
        ``crash`` never recovers: its duration is the canonical ``0``
        and its coverage is ``[start, inf)``.
    kind:
        ``"crash"``, ``"restart"`` or ``"gray"``.
    """

    start: Time
    duration: Duration
    kind: str = "restart"

    @property
    def end(self) -> Optional[Time]:
        """End of the window; ``None`` for a crash (never recovers)."""
        if self.kind == "crash":
            return None
        return self.start + self.duration

    def covers(self, t: Time) -> bool:
        """True if the lender is failing (this window) at *t*."""
        if t < self.start:
            return False
        return self.end is None or t < self.end


@dataclass(frozen=True)
class LenderFailureSchedule:
    """Validated, ordered lender failure windows.

    The constructor is the *only* sanctioned way to build a schedule
    (simlint SIM011 flags literal outage tuples elsewhere): windows
    must be ordered, disjoint, and a crash — which never ends — must be
    the final entry.

    Attributes
    ----------
    outages:
        The failure windows, in time order.
    gray_factor:
        Bus-service inflation during gray windows: a gray lender's
        memory bus serves each access as if it were ``gray_factor``
        times larger (silently — heartbeats still pass).
    """

    outages: Tuple[LenderOutage, ...] = ()
    gray_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.gray_factor < 1.0:
            raise ReproError("gray_factor must be >= 1 (a slowdown)")
        last_end = -1
        for outage in self.outages:
            if outage.kind not in LENDER_FAILURE_KINDS:
                raise ReproError(
                    f"unknown outage kind {outage.kind!r}; "
                    f"expected one of {LENDER_FAILURE_KINDS}"
                )
            if outage.start < 0:
                raise ReproError("outage windows need start >= 0")
            if outage.kind == "crash":
                if outage.duration != 0:
                    raise ReproError(
                        "a crash never recovers: use duration=0 "
                        "(coverage is [start, inf))"
                    )
            elif outage.duration <= 0:
                raise ReproError("outage windows need duration > 0")
            if last_end is None or outage.start <= last_end:
                raise ReproError("outage windows must be disjoint and ordered")
            last_end = outage.end
        del last_end

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def single(
        cls, kind: str, at: Time, duration: Duration = 0, gray_factor: float = 4.0
    ) -> "LenderFailureSchedule":
        """One failure of *kind* at *at* (the seeded-demo schedule)."""
        if kind == "crash":
            duration = 0
        return cls(outages=(LenderOutage(at, duration, kind),), gray_factor=gray_factor)

    @classmethod
    def from_mtbf(
        cls,
        stream,
        mtbf_ps: Duration,
        mttr_ps: Duration,
        horizon_ps: Time,
        kind: str = "restart",
        first_failure_after: Time = 0,
        gray_factor: float = 4.0,
    ) -> "LenderFailureSchedule":
        """Draw an outage sequence from a named RNG *stream*.

        Inter-failure gaps are exponential with mean *mtbf_ps* and
        repair windows exponential with mean *mttr_ps* (clamped to at
        least 1 ps), starting after *first_failure_after*; a ``crash``
        schedule stops at its first failure.  Determinism: *stream*
        must be a named :class:`~repro.sim.rng.RngStreams` child, never
        a worker- or order-dependent generator.
        """
        if mtbf_ps <= 0 or mttr_ps <= 0:
            raise ReproError("mtbf_ps and mttr_ps must be positive")
        outages: List[LenderOutage] = []
        t = first_failure_after
        while True:
            gap = max(1, int(round(float(stream.exponential(mtbf_ps)))))
            start = t + gap
            if start >= horizon_ps:
                break
            if kind == "crash":
                outages.append(LenderOutage(start, 0, "crash"))
                break
            duration = max(1, int(round(float(stream.exponential(mttr_ps)))))
            outages.append(LenderOutage(start, duration, kind))
            t = start + duration
        return cls(outages=tuple(outages), gray_factor=gray_factor)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def outage_covering(self, t: Time, kinds: Sequence[str]) -> Optional[LenderOutage]:
        """The window of one of *kinds* covering *t*, if any."""
        for outage in self.outages:
            if outage.kind in kinds and outage.covers(t):
                return outage
            if outage.end is not None and t < outage.start:
                break
        return None

    def down_at(self, t: Time) -> bool:
        """True while the lender cannot serve (crash/restart window)."""
        return self.outage_covering(t, ("crash", "restart")) is not None

    def gray_at(self, t: Time) -> bool:
        """True while the lender silently serves at a degraded rate."""
        return self.outage_covering(t, ("gray",)) is not None

    def next_up(self, t: Time) -> Optional[Time]:
        """When a lender down at *t* serves again; ``None`` if never."""
        outage = self.outage_covering(t, ("crash", "restart"))
        if outage is None:
            return t
        return outage.end

    def first_failure(self) -> Optional[Time]:
        """Start of the earliest crash/restart window."""
        for outage in self.outages:
            if outage.kind in ("crash", "restart"):
                return outage.start
        return None

    def total_downtime(self, horizon_ps: Time) -> Duration:
        """Down time (crash/restart) within ``[0, horizon_ps)``."""
        total = 0
        for outage in self.outages:
            if outage.kind == "gray" or outage.start >= horizon_ps:
                continue
            end = horizon_ps if outage.end is None else min(outage.end, horizon_ps)
            total += end - outage.start
        return total


@dataclass(frozen=True)
class HealthParams:
    """The control plane's lease/heartbeat discipline.

    Lenders renew a lease every ``period_ps``; a lender inside a
    crash/restart window misses its renewals.  After
    ``suspect_misses`` consecutive misses the control plane marks it
    SUSPECT, after ``dead_misses`` DEAD — at which point the
    :class:`FailoverPolicy` fires.  Gray failures renew on time and are
    *not* detected: that is what makes them gray.
    """

    period_ps: Duration = microseconds(20)
    suspect_misses: int = 1
    dead_misses: int = 3

    def __post_init__(self) -> None:
        if self.period_ps <= 0:
            raise ReproError("heartbeat period must be positive")
        if not 1 <= self.suspect_misses <= self.dead_misses:
            raise ReproError("need 1 <= suspect_misses <= dead_misses")

    def first_missed_tick(self, outage_start: Time) -> Time:
        """The first heartbeat deadline a failure at *outage_start* misses."""
        k = max(1, math.ceil(outage_start / self.period_ps))
        return k * self.period_ps

    def miss_ticks(self, outage: LenderOutage) -> List[Time]:
        """Heartbeat deadlines missed during *outage*, up to detection."""
        ticks: List[Time] = []
        t = self.first_missed_tick(outage.start)
        for _ in range(self.dead_misses):
            if not outage.covers(t):
                break
            ticks.append(t)
            t += self.period_ps
        return ticks

    def suspect_time(self, outage: LenderOutage) -> Optional[Time]:
        """When the control plane marks the lender SUSPECT (if ever)."""
        ticks = self.miss_ticks(outage)
        if len(ticks) < self.suspect_misses:
            return None
        return ticks[self.suspect_misses - 1]

    def detection_time(self, outage: LenderOutage) -> Optional[Time]:
        """When the control plane declares the lender DEAD.

        ``None`` when the lender recovers before accumulating
        ``dead_misses`` consecutive misses — a blip the health check
        rides out.  Both the health monitor and the blocked datapath
        compute this same instant, so they agree without relying on
        same-timestamp event ordering.
        """
        ticks = self.miss_ticks(outage)
        if len(ticks) < self.dead_misses:
            return None
        return ticks[self.dead_misses - 1]


class GrayFailureDram(DramModule):
    """Lender DRAM whose bus silently degrades during gray windows.

    During a gray window every access reserves ``gray_factor`` times
    its bytes on the shared bus — the lender still answers (heartbeats
    pass, no detection), it just answers slowly, inflating every
    sharer's tail.  Outside gray windows the module is byte-identical
    to :class:`~repro.mem.dram.DramModule`.
    """

    def __init__(
        self, config, schedule: LenderFailureSchedule, name: str = "dram"
    ) -> None:
        super().__init__(config, name=name)
        self.schedule = schedule
        self.gray_accesses = 0

    def access(self, nbytes: int, at: Time, write: bool = False) -> Time:
        if not self.schedule.gray_at(at):
            return super().access(nbytes, at, write=write)
        self.gray_accesses += 1
        if write:
            self.writes += 1
        else:
            self.reads += 1
        inflated = max(nbytes, int(round(nbytes * self.schedule.gray_factor)))
        _, bus_done = self.bus.reserve(inflated, at)
        return bus_done + self.config.access_latency


class EvacuationReplayer:
    """Replays a window's pages over the fabric, one page at a time.

    Deliberately a *callback* state machine, not a generator process:
    every pending event is a bound method with picklable state, so an
    in-flight evacuation survives
    :meth:`~repro.sim.core.Simulator.snapshot` /
    :meth:`~repro.sim.core.Simulator.restore` bit-identically
    (generators cannot pickle).  Pages are paced store-and-forward —
    page *n+1* departs when page *n* arrives — so foreground datapath
    traffic interleaves with the replay on shared fabric hops instead
    of being locked out for the whole transfer.
    """

    def __init__(
        self,
        sim,
        fabric,
        src,
        dst,
        n_pages: int,
        page_bytes: int = DEFAULT_PAGE_BYTES,
    ) -> None:
        if n_pages < 1:
            raise ReproError("an evacuation moves at least one page")
        if page_bytes < 1:
            raise ReproError("page_bytes must be positive")
        self.sim = sim
        self.fabric = fabric
        self.src = src
        self.dst = dst
        self.n_pages = n_pages
        self.page_bytes = page_bytes
        self.pages_sent = 0
        self.page_arrivals: List[Time] = []
        self.started_at: Optional[Time] = None
        self.finished_at: Optional[Time] = None
        #: Fired (with the replayer) at completion time.  Left ``None``
        #: in snapshot/restore scenarios — callbacks do not pickle.
        self.on_done = None

    @property
    def done(self) -> bool:
        """True once every page has arrived."""
        return self.finished_at is not None

    def start(self, delay: Duration = 0) -> None:
        """Begin the replay *delay* ps from now."""
        if self.started_at is not None:
            raise ReproError("replayer already started")
        self.started_at = self.sim.now + delay
        self.sim.schedule(delay, self._step)

    def _step(self) -> None:
        arrival = self.fabric.transmit(
            self.page_bytes, self.src, self.dst, self.sim.now
        )
        self.pages_sent += 1
        self.page_arrivals.append(arrival)
        wait = max(0, arrival - self.sim.now)
        if self.pages_sent < self.n_pages:
            self.sim.schedule(wait, self._step)
        else:
            self.sim.schedule(wait, self._finish)

    def _finish(self) -> None:
        self.finished_at = self.sim.now
        if self.on_done is not None:
            self.on_done(self)

    def manifest(self) -> List[dict]:
        """The replay as plain data: one row per page (for S3 bit-identity)."""
        return [
            {"page": i, "arrival_ps": int(t), "bytes": self.page_bytes}
            for i, t in enumerate(self.page_arrivals)
        ]


# ----------------------------------------------------------------------
# Failover policies
# ----------------------------------------------------------------------
class FailoverPolicy(abc.ABC):
    """What the control plane does with a DEAD lender's borrowers.

    Policies are thin: they choose per-pair actions and delegate the
    mechanics to the deployment's failover coordinator
    (:class:`repro.node.multipair.FailoverCoordinator`), which owns the
    control-plane bookkeeping, the fabric, and the blame recording.
    """

    name: str = "policy"

    @abc.abstractmethod
    def apply(self, coordinator, lender_index: int, now: Time) -> None:
        """React to lender *lender_index* being declared DEAD at *now*."""


class CrashBorrowerPolicy(FailoverPolicy):
    """The paper's baseline: every affected borrower checkstops."""

    name = "crash"

    def apply(self, coordinator, lender_index: int, now: Time) -> None:
        for pair in coordinator.pairs_on(lender_index):
            coordinator.crash_pair(pair, now)


class QuarantinePolicy(FailoverPolicy):
    """Quarantine the dead window; serve from borrower-local memory.

    Reuses the graceful-degradation fallback of
    :mod:`repro.core.resilience.degradation`: the datapath's ``local``
    mode, the same one ARQ retry exhaustion enters under
    ``degraded_mode``.  No fail-back: a quarantined pair stays local
    even if the lender restarts.
    """

    name = "quarantine"

    def apply(self, coordinator, lender_index: int, now: Time) -> None:
        for pair in coordinator.pairs_on(lender_index):
            coordinator.quarantine_pair(pair, now)


class EvacuationPolicy(FailoverPolicy):
    """Re-reserve on a surviving lender and replay the window's pages.

    The control plane's allocation policy picks the new lender among
    the HEALTHY survivors; the borrower's touched pages then replay
    over the shared fabric (:class:`EvacuationReplayer`) at real
    simulated cost before remote service resumes.  When no survivor
    has capacity the pair degrades to quarantine instead of crashing.
    """

    name = "evacuate"

    def __init__(self, page_bytes: int = DEFAULT_PAGE_BYTES) -> None:
        if page_bytes < 1:
            raise ReproError("page_bytes must be positive")
        self.page_bytes = page_bytes

    def apply(self, coordinator, lender_index: int, now: Time) -> None:
        for pair in coordinator.pairs_on(lender_index):
            coordinator.evacuate_pair(pair, now, page_bytes=self.page_bytes)


def policy_by_name(name: str) -> FailoverPolicy:
    """Instantiate a failover policy from its sweep label."""
    for cls in (CrashBorrowerPolicy, QuarantinePolicy, EvacuationPolicy):
        if cls.name == name:
            return cls()
    raise ReproError(
        f"unknown failover policy {name!r}; expected one of "
        f"{[c.name for c in (CrashBorrowerPolicy, QuarantinePolicy, EvacuationPolicy)]}"
    )


# ----------------------------------------------------------------------
# The MTBF/MTTR x policy x lender-count sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FailoverPoint:
    """Outcome of one borrower at one sweep point."""

    policy: str
    kind: str  # failure kind injected on lender 0
    mtbf_ms: float
    mttr_ms: float
    n_lenders: int
    borrower: str
    lender: str  # originally assigned lender
    outcome: str  # "ok" | "crashed" | "degraded" | "evacuated"
    detect_ms: Optional[float]  # failure start -> DEAD declaration
    evac_stall_ms: Optional[float]  # DEAD -> remote service resumed
    pages_evacuated: int
    new_lender: Optional[str]
    goodput_dip: Optional[float]  # 1 - bw_faulty / bw_clean
    p99_inflation: Optional[float]  # p99_faulty / p99_clean
    blip_stalls: int
    degraded_accesses: int

    @property
    def survived(self) -> bool:
        """True unless the borrower host crashed."""
        return self.outcome != CRASHED


@dataclass
class FailoverReport:
    """Full failover sweep output."""

    points: List[FailoverPoint]
    events: List[dict] = field(default_factory=list)

    def by_policy(self, policy: str) -> List[FailoverPoint]:
        """Points run under *policy*."""
        return [p for p in self.points if p.policy == policy]

    def survival_rate(self, policy: str) -> float:
        """Fraction of borrowers that survived under *policy*."""
        points = self.by_policy(policy)
        if not points:
            return float("nan")
        return sum(1 for p in points if p.survived) / len(points)


def _failover_point(
    policy: str,
    kind: str,
    mtbf_ms: float,
    mttr_ms: float,
    n_pairs: int,
    n_lenders: int,
    n_lines: int,
    seed: int,
    loss: float = 0.0,
    heartbeat_us: float = 20.0,
    obs=None,
) -> dict:
    """Run one (policy, failure scenario) point; module-level for workers.

    Builds a :class:`~repro.node.multipair.BeyondRackDeployment` with
    failover armed, injects the scheduled lender failures, drives one
    streaming instance per borrower, and reports per-borrower survival,
    recovery cost, and the inflation versus a clean run of the same
    deployment and seed.  Returns plain JSON data (the executor's
    contract).
    """
    from repro.calibration import paper_cluster_config
    from repro.core.resilience.failures import HostCrash
    from repro.engine import DesPhaseDriver, Location
    from repro.node.multipair import BeyondRackDeployment
    from repro.sim import RngStreams
    from repro.workloads.stream import StreamConfig, StreamWorkload

    cluster = paper_cluster_config(seed=seed)
    fabric_fault = cluster.fault.with_loss(loss) if loss > 0 else None
    assignment = [i % n_lenders for i in range(n_pairs)]
    health = HealthParams(period_ps=int(microseconds(heartbeat_us)))

    def build(schedules):
        deployment = BeyondRackDeployment(
            n_pairs,
            lender_assignment=assignment,
            cluster=cluster,
            n_lenders=n_lenders,
            lender_schedules=schedules,
            failover=policy_by_name(policy) if schedules else None,
            health=health,
            fabric_fault=fabric_fault,
            obs=obs if schedules else None,
            obs_label_prefix=(
                f"failover policy={policy}/kind={kind}/lenders={n_lenders}"
            ),
        )
        deployment.attach_all()
        if schedules:
            deployment.arm_failover()
        drivers = []
        for idx, pair in enumerate(deployment.pairs):
            program = StreamWorkload(StreamConfig(n_elements=n_lines)).program(
                Location.REMOTE
            )
            drivers.append(DesPhaseDriver(pair, program, instance=f"pair{idx}"))
        procs = [d.start() for d in drivers]
        deployment.sim.run()
        return deployment, drivers, procs

    # The fault schedule: lender 0 fails; spares stay healthy.  The
    # first failure lands after attach (attach_all completes within a
    # few microseconds of t=0) and inside the measured burst.
    first_at = int(microseconds(30))
    if mtbf_ms > 0:
        streams = RngStreams(seed, prefix="failover")
        schedule = LenderFailureSchedule.from_mtbf(
            streams.get("failover.l0"),
            mtbf_ps=int(milliseconds(mtbf_ms)),
            mttr_ps=int(milliseconds(mttr_ms)),
            horizon_ps=int(milliseconds(max(mtbf_ms * 4, 10.0))),
            kind=kind,
            first_failure_after=first_at,
        )
    else:
        schedule = LenderFailureSchedule.single(
            kind, at=first_at, duration=int(milliseconds(mttr_ms))
        )

    clean_dep, clean_drivers, clean_procs = build(None)
    for proc in clean_procs:
        if not proc.ok:
            _ = proc.value  # clean run must not fail: surface it
    deployment, drivers, procs = build({0: schedule})

    coord = deployment.coordinator
    rows: List[dict] = []
    for idx, (pair, driver, proc) in enumerate(zip(deployment.pairs, drivers, procs)):
        failover = pair.availability
        crashed = not proc.ok and isinstance(proc._exc, HostCrash)  # noqa: SLF001
        if not proc.ok and not crashed:
            _ = proc.value  # unexpected failure: surface it
        if crashed:
            outcome = CRASHED
        elif failover.evacuated_to is not None:
            outcome = EVACUATED
        elif pair.quarantined_at is not None:
            outcome = DEGRADED
        else:
            outcome = OK
        clean = clean_drivers[idx].result
        clean_p99 = clean.latencies.percentile(99)
        if proc.ok and driver.result is not None:
            dip = 1.0 - driver.result.bandwidth_bytes_per_s / clean.bandwidth_bytes_per_s
            p99 = driver.result.latencies.percentile(99)
            inflation = p99 / clean_p99 if clean_p99 > 0 else None
        else:
            dip, inflation = 1.0, None
        rows.append(
            {
                "policy": policy,
                "kind": kind,
                "mtbf_ms": mtbf_ms,
                "mttr_ms": mttr_ms,
                "n_lenders": n_lenders,
                "borrower": f"b{idx}",
                "lender": f"l{assignment[idx]}",
                "outcome": outcome,
                "detect_ms": (
                    failover.detect_lag_ps / 1e9
                    if failover.detect_lag_ps is not None
                    else None
                ),
                "evac_stall_ms": (
                    failover.evacuation_stall_ps / 1e9
                    if failover.evacuation_stall_ps is not None
                    else None
                ),
                "pages_evacuated": failover.pages_evacuated,
                "new_lender": failover.evacuated_to,
                "goodput_dip": dip,
                "p99_inflation": inflation,
                "blip_stalls": failover.blip_stalls,
                "degraded_accesses": int(
                    pair.stats.counters.get("degraded.accesses", 0)
                ),
            }
        )
    events = list(coord.events) if coord is not None else []
    if obs is not None:
        deployment.finish_obs()
    del clean_dep
    return {"rows": rows, "events": events}


def failover_sweep(
    policies: Sequence[str] = ("crash", "quarantine", "evacuate"),
    kinds: Sequence[str] = ("crash",),
    mtbf_ms: float = 0.0,
    mttr_ms: float = 1.0,
    lender_counts: Sequence[int] = (2,),
    n_pairs: int = 2,
    n_lines: int = 20_000,
    seed: int = 1234,
    loss: float = 0.0,
    obs=None,
    workers: int = 1,
    cache=None,
) -> FailoverReport:
    """Sweep lender MTBF/MTTR x failover policy x lender count.

    With ``mtbf_ms = 0`` each point injects one seeded failure on
    lender 0 (the CI demo shape); otherwise outage sequences draw from
    the point's named RNG stream.  Points are independent runs on the
    :mod:`repro.perf` executor: per-point RNG roots derive from
    ``(seed, point key)``, never from worker identity, so ``workers=N``
    is bit-identical to serial and results cache cleanly.  Threading
    *obs* through forces inline execution (spans cannot cross
    processes).
    """
    keyed = []
    for policy in policies:
        for kind in kinds:
            for n_lenders in lender_counts:
                key = (
                    f"failover/policy={policy}/kind={kind}/mtbf={mtbf_ms!r}"
                    f"/mttr={mttr_ms!r}/lenders={n_lenders}/pairs={n_pairs}"
                    f"/loss={loss!r}"
                )
                keyed.append((policy, kind, n_lenders, key))
    common = {
        "mtbf_ms": mtbf_ms,
        "mttr_ms": mttr_ms,
        "n_pairs": n_pairs,
        "n_lines": n_lines,
        "loss": loss,
    }
    if obs is not None:
        outputs = [
            _failover_point(
                policy,
                kind,
                n_lenders=n_lenders,
                seed=derive_point_seed(seed, key),
                obs=obs,
                **common,
            )
            for policy, kind, n_lenders, key in keyed
        ]
    else:
        tasks = [
            PointTask(
                key=key,
                fn=_failover_point,
                kwargs=dict(
                    common,
                    policy=policy,
                    kind=kind,
                    n_lenders=n_lenders,
                    seed=derive_point_seed(seed, key),
                ),
            )
            for policy, kind, n_lenders, key in keyed
        ]
        outputs = SweepExecutor(workers=workers, cache=cache).map(tasks)
    points: List[FailoverPoint] = []
    events: List[dict] = []
    for output in outputs:
        points.extend(FailoverPoint(**row) for row in output["rows"])
        events.extend(output["events"])
    return FailoverReport(points=points, events=events)
