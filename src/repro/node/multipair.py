"""Beyond-rack deployment: many borrower-lender pairs on a shared fabric.

The paper's model (section II-A) has "a network shared between
multiple borrower-lender node pairs [which] can include intermediate
switches to support a large-scale datacenter"; its prototype collapses
that to one cable.  This module builds the general case on the DES
substrate: each pair is a full testbed (window, injector) whose
``wire`` stage is a :class:`FabricWire` — its transactions traverse a
shared :class:`~repro.net.fabric.Fabric` instead of a private link —
and which is handed its lender node and its own RNG namespace at
construction, so pairs assigned one lender share its memory bus.
Switch-egress congestion, incast toward a popular lender, and
multi-tenant interference all emerge.

Lender failure domains (this repo's robustness extension) ride on the
same deployment: pass ``lender_schedules`` + a
:class:`~repro.core.resilience.failover.FailoverPolicy` and each pair
gets a :class:`LenderFailover` ``availability`` stage that reacts to
its lender dying, while a :class:`FailoverCoordinator` drives the
control-plane health state machine (HEALTHY → SUSPECT → DEAD →
RESTARTING) and the per-policy recovery — checkstop, quarantine to
local memory, or page evacuation to a surviving lender over the
fabric.  A ``delivery`` template (e.g.
:class:`~repro.node.reliable.ArqDelivery`) gives every pair ARQ over
its fabric legs.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Dict, Generator, Hashable, List, Optional, Sequence

from repro.config import ClusterConfig, default_cluster_config
from repro.control.plane import ControlPlane, NodeInventory
from repro.errors import AllocationError, ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.resilience.failover import (
        EvacuationReplayer,
        FailoverPolicy,
        HealthParams,
        LenderFailureSchedule,
    )
from repro.net.fabric import Fabric
from repro.nic.packet import PacketKind
from repro.node.cluster import REMOTE, ThymesisFlowSystem
from repro.sim import RngStreams, Signal, Simulator, Timeout
from repro.units import Time

__all__ = [
    "FabricWire",
    "LenderFailover",
    "FailoverCoordinator",
    "BeyondRackDeployment",
]

#: Synthetic blame-request seqs start here so failover envelopes never
#: collide with datapath transaction seqs (which count up from 1).
FAILOVER_BLAME_SEQ_BASE = 10_000_000


class _FabricLeg:
    """One direction of a :class:`FabricWire`, shaped like a link channel."""

    def __init__(self, wire: "FabricWire", to_lender: bool) -> None:
        self.wire = wire
        self.to_lender = to_lender
        self.name = "fabric.request" if to_lender else "fabric.response"

    def transmit(self, nbytes: int, at: Time) -> Time:
        """Route *nbytes* entering at *at* to the current far end."""
        return self.transmit_blamed(nbytes, at)[0]

    def transmit_blamed(self, nbytes: int, at: Time):
        """``(arrival, at + queueing summed over the route's hops)``."""
        wire = self.wire
        if self.to_lender:
            src, dst = wire.borrower_id, wire.lender_id
        else:
            src, dst = wire.lender_id, wire.borrower_id
        arrival, queued = wire.fabric.transmit_queued(nbytes, src, dst, at)
        return arrival, at + queued


class FabricWire:
    """Wire stage: both legs of a pair route over a shared fabric.

    The legs read :attr:`lender_id` on every transmit, so re-pointing
    it — as a lender-failover evacuation does — moves the pair's
    traffic to the new lender.
    """

    def __init__(self, fabric: Fabric, borrower_id: Hashable, lender_id: Hashable) -> None:
        self.fabric = fabric
        self.borrower_id = borrower_id
        self.lender_id = lender_id
        self.forward = _FabricLeg(self, True)
        self.reverse = _FabricLeg(self, False)


class LenderFailover:
    """Availability stage: the pair's lender can die under it.

    If the assigned lender is inside a scheduled crash/restart window,
    a transaction either stalls to the outage end (a blip the health
    check rides out) or waits to the control plane's detection instant
    and forces the failover, whose policy puts the system in
    ``crashed``, ``local`` or ``evacuating`` mode.  Transactions already
    past the check complete normally (responses in flight drain back),
    as with :class:`~repro.core.resilience.failures.LinkBlackout`.  The
    stage keeps the pair's recovery bookkeeping for ``failover_sweep``.
    """

    def __init__(self, coordinator: "FailoverCoordinator", lender_index: int) -> None:
        self.coordinator = coordinator
        self.lender_index = lender_index
        self.touched_lines: set = set()
        self.blip_stalls = 0
        self.pages_evacuated = 0
        self.failed_over_at: Optional[Time] = None
        self.detect_lag_ps: Optional[int] = None
        self.evacuation_stall_ps: Optional[int] = None
        self.evacuated_to: Optional[str] = None

    def hold(self, system: ThymesisFlowSystem, addr: int, kind: PacketKind) -> Generator:
        """Stall across a lender outage; returns whether it stalled."""
        sim = system.sim
        coord = self.coordinator
        if coord.armed:
            schedule = coord.schedules.get(self.lender_index)
            outage = (
                schedule.outage_covering(sim.now, ("crash", "restart"))
                if schedule is not None
                else None
            )
            if outage is not None:
                t_dead = coord.health.detection_time(outage)
                if t_dead is None:
                    # A blip shorter than the detection horizon:
                    # stall to recovery, like a link blackout.
                    self.blip_stalls += 1
                    if outage.end > sim.now:
                        yield Timeout(sim, outage.end - sim.now)
                else:
                    # The control plane will declare this lender DEAD
                    # at t_dead; wait there and force the (idempotent)
                    # failover ourselves in case our wake-up ran before
                    # the health monitor's.  Capture the index first:
                    # the coordinator may re-point this pair to a new
                    # lender while we sleep, and the failover must
                    # target the dead one, not the survivor.
                    dead_index = self.lender_index
                    if t_dead > sim.now:
                        yield Timeout(sim, t_dead - sim.now)
                    coord.ensure_failover(dead_index, sim.now)
                return True
        if kind in (PacketKind.READ_REQ, PacketKind.WRITE_REQ):
            self.touched_lines.add(addr)
        return False


class FailoverCoordinator:
    """Drives lender health transitions and policy recovery.

    Owns the deterministic coupling between the static
    :class:`~repro.core.resilience.failover.LenderFailureSchedule`\\ s
    and the control plane: :meth:`install` precomputes every
    heartbeat-miss, repair, and renewal instant from the schedules and
    arms them as *finite* simulator callbacks (never an infinite
    monitor process, which would keep ``sim.run()`` from terminating).
    The DEAD edge fires :meth:`ensure_failover`, which surrenders the
    lender's reservations and applies the policy; the audit trail in
    :attr:`events` is plain sorted data, byte-identical run to run.
    """

    def __init__(
        self,
        deployment: "BeyondRackDeployment",
        policy: FailoverPolicy,
        health: HealthParams,
        schedules: Dict[int, LenderFailureSchedule],
        page_bytes: int = 4096,
    ) -> None:
        self.deployment = deployment
        self.policy = policy
        self.health = health
        self.schedules = dict(schedules)
        self.page_bytes = page_bytes
        self.sim = deployment.sim
        self.plane = deployment.plane
        self.events: List[dict] = []
        self.armed = False
        self._failed: set = set()
        self._blame_seq = FAILOVER_BLAME_SEQ_BASE

    # ------------------------------------------------------------------
    def pairs_on(self, lender_index: int) -> List[ThymesisFlowSystem]:
        """Pairs still in remote service against lender *lender_index*."""
        return [
            pair
            for pair in self.deployment.pairs
            if pair.availability.lender_index == lender_index and pair.mode == REMOTE
        ]

    def install(self) -> None:
        """Arm the health events.  Call after ``attach_all()``.

        Every transition instant is precomputed from the schedules, so
        the armed events are finite and the simulator still runs to
        exhaustion.  The first failure must lie in the future — attach
        handshakes are not part of the failure window.
        """
        if self.armed:
            raise ConfigError("failover already armed")
        now = self.sim.now
        self.plane.configure_health(
            self.health.suspect_misses, self.health.dead_misses
        )
        for j in sorted(self.schedules):
            schedule = self.schedules[j]
            name = f"l{j}"
            first = schedule.first_failure()
            if first is not None and first <= now:
                raise ConfigError(
                    f"lender {name} fails at {first} ps but failover is "
                    f"armed at {now} ps; schedule failures after attach"
                )
            for outage in schedule.outages:
                if outage.kind == "gray":
                    continue  # gray lenders heartbeat normally
                for tick in self.health.miss_ticks(outage):
                    self.sim.schedule(tick - now, self._on_miss, j, name)
                if outage.end is not None:
                    # Repair observed at the outage end; the next
                    # heartbeat deadline renews the lease.
                    self.sim.schedule(outage.end - now, self._on_repair, j, name)
                    renew = self.health.first_missed_tick(outage.end)
                    self.sim.schedule(renew - now, self._on_heartbeat, name)
        self.armed = True

    # ------------------------------------------------------------------
    # Health event callbacks (scheduled by install)
    # ------------------------------------------------------------------
    def _on_miss(self, lender_index: int, name: str) -> None:
        from repro.control.plane import HealthState

        state = self.plane.record_miss(name, self.sim.now)
        if state is HealthState.DEAD:
            self.ensure_failover(lender_index, self.sim.now)

    def _on_repair(self, lender_index: int, name: str) -> None:
        from repro.control.plane import HealthState

        if self.plane.health(name) is HealthState.DEAD:
            self.plane.mark_restarting(name)
            self.events.append(
                {"at_ps": int(self.sim.now), "event": "lender_restarting", "lender": name}
            )
        # A repaired lender may fail again later; allow re-detection.
        self._failed.discard(lender_index)

    def _on_heartbeat(self, name: str) -> None:
        self.plane.record_heartbeat(name, self.sim.now)

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def ensure_failover(self, lender_index: int, now: Time) -> None:
        """Declare lender *lender_index* DEAD and apply the policy.

        Idempotent per outage: the health monitor's DEAD edge and every
        datapath transaction waking at the detection instant all call
        this; the first caller wins and the rest are no-ops, so
        same-timestamp event ordering cannot change the outcome.
        """
        if lender_index in self._failed:
            return
        self._failed.add(lender_index)
        name = f"l{lender_index}"
        surrendered = self.plane.fail_lender(name)
        self.events.append(
            {
                "at_ps": int(now),
                "event": "lender_dead",
                "lender": name,
                "policy": self.policy.name,
                "reservations_surrendered": len(surrendered),
            }
        )
        self.policy.apply(self, lender_index, now)

    def _outage_start(self, lender_index: int, now: Time) -> Time:
        schedule = self.schedules.get(lender_index)
        if schedule is not None:
            outage = schedule.outage_covering(now, ("crash", "restart"))
            if outage is not None:
                return outage.start
        return now

    # ------------------------------------------------------------------
    # Policy primitives
    # ------------------------------------------------------------------
    def crash_pair(self, pair: ThymesisFlowSystem, now: Time) -> None:
        """Checkstop *pair*'s borrower (the paper's baseline)."""
        failover = pair.availability
        borrower = pair.wire.borrower_id
        pair.crash(
            f"borrower {borrower} checkstopped: lender "
            f"l{failover.lender_index} is dead and the failover policy is 'crash'"
        )
        failover.failed_over_at = now
        failover.detect_lag_ps = now - self._outage_start(failover.lender_index, now)
        self.events.append(
            {
                "at_ps": int(now),
                "event": "borrower_crashed",
                "borrower": str(borrower),
                "lender": f"l{failover.lender_index}",
            }
        )

    def quarantine_pair(self, pair: ThymesisFlowSystem, now: Time) -> None:
        """Take *pair*'s window out of service; serve locally from now on."""
        failover = pair.availability
        outage_start = self._outage_start(failover.lender_index, now)
        pair.quarantine(now - outage_start, f"lender l{failover.lender_index} died")
        failover.failed_over_at = now
        failover.detect_lag_ps = now - outage_start
        self.events.append(
            {
                "at_ps": int(now),
                "event": "borrower_quarantined",
                "borrower": str(pair.wire.borrower_id),
                "lender": f"l{failover.lender_index}",
            }
        )
        self._blame_failover(pair, outage_start, now)

    def evacuate_pair(
        self,
        pair: ThymesisFlowSystem,
        now: Time,
        page_bytes: Optional[int] = None,
    ) -> None:
        """Re-reserve on a surviving lender and replay the pair's pages."""
        page_bytes = page_bytes or self.page_bytes
        failover = pair.availability
        borrower = str(pair.wire.borrower_id)
        old_index = failover.lender_index
        outage_start = self._outage_start(old_index, now)
        try:
            reservation = self.plane.reserve(
                borrower, self.deployment.window_bytes
            )
        except AllocationError as exc:
            # No survivor has capacity: degrade instead of dying.
            self.events.append(
                {
                    "at_ps": int(now),
                    "event": "evacuation_fallback",
                    "borrower": borrower,
                    "reason": str(exc),
                }
            )
            self.quarantine_pair(pair, now)
            return
        new_index = int(reservation.lender[1:])
        n_pages = max(
            1, -(-len(failover.touched_lines) * pair.line_bytes // page_bytes)
        )
        failover.detect_lag_ps = now - outage_start
        failover.failed_over_at = now
        pair.begin_evacuation(Signal(self.sim))
        # Re-point the pair before the replay: page traffic and, after
        # resume, datapath legs both target the new lender.
        pair.lender = self.deployment.lender_nodes[new_index]
        pair.obs.track_lender(pair.lender)
        pair.wire.lender_id = reservation.lender
        failover.lender_index = new_index
        self.events.append(
            {
                "at_ps": int(now),
                "event": "evacuation_started",
                "borrower": borrower,
                "from": f"l{old_index}",
                "to": reservation.lender,
                "pages": n_pages,
            }
        )
        from repro.core.resilience.failover import EvacuationReplayer

        replayer = EvacuationReplayer(
            self.sim,
            self.deployment.fabric,
            src=pair.wire.borrower_id,
            dst=reservation.lender,
            n_pages=n_pages,
            page_bytes=page_bytes,
        )
        replayer.on_done = (
            lambda r, pair=pair, outage_start=outage_start, detect=now: (
                self._evacuation_done(pair, r, outage_start, detect)
            )
        )
        replayer.start()

    def _evacuation_done(
        self,
        pair: ThymesisFlowSystem,
        replayer: EvacuationReplayer,
        outage_start: Time,
        detect: Time,
    ) -> None:
        now = self.sim.now
        failover = pair.availability
        failover.pages_evacuated = replayer.n_pages
        failover.evacuation_stall_ps = now - detect
        failover.evacuated_to = str(pair.wire.lender_id)
        self.events.append(
            {
                "at_ps": int(now),
                "event": "evacuation_done",
                "borrower": str(pair.wire.borrower_id),
                "to": failover.evacuated_to,
                "pages": replayer.n_pages,
                "stall_ps": int(failover.evacuation_stall_ps),
            }
        )
        self._blame_failover(pair, outage_start, detect, resume=now)
        pair.end_evacuation()

    # ------------------------------------------------------------------
    def _blame_failover(
        self,
        pair: ThymesisFlowSystem,
        outage_start: Time,
        detect: Time,
        resume: Optional[Time] = None,
    ) -> None:
        """Record the recovery as one synthetic blame envelope.

        The envelope tiles exactly — ``backoff`` on
        ``failover.detect`` for [outage start, DEAD declaration] and
        ``retry`` on ``failover.evacuation`` for [declaration, resume]
        (replaying pages is re-transferring data the borrower already
        paid for once) — so ``repro obs attrib``/``diff`` decompose
        recovery cost through the existing six-category vocabulary,
        both legs rank as blocking resources, and ``blame_sum_check``
        still passes.
        """
        obs = pair.obs
        if not (obs.enabled and obs.attrib_enabled and obs.tracer.enabled):
            return
        tracer = obs.tracer
        pid = pair._obs_pid or 1
        seq = self._blame_seq
        self._blame_seq += 1
        end = resume if resume is not None else detect
        if end <= outage_start:
            return
        if detect > outage_start:
            tracer.add_blame(
                "backoff",
                outage_start,
                detect,
                pid=pid,
                seq=seq,
                resource="failover.detect",
            )
        if resume is not None and resume > detect:
            tracer.add_blame(
                "retry",
                detect,
                resume,
                pid=pid,
                seq=seq,
                resource="failover.evacuation",
            )
        tracer.add_request(seq, outage_start, end, pid=pid)


class BeyondRackDeployment:
    """N pairs joined through one top-of-rack-style switch.

    Parameters
    ----------
    n_pairs:
        Number of borrower nodes.
    lender_assignment:
        For each borrower, the lender index it borrows from.  Defaults
        to distinct lenders (``i -> i``); pass ``[0] * n`` for an
        incast toward one popular lender.
    cluster:
        Per-pair configuration template.
    n_lenders:
        Total lender count, including spares no borrower is assigned
        to (evacuation targets).  Defaults to just the assigned ones.
    lender_schedules:
        ``{lender index: LenderFailureSchedule}`` fault injection.
        Arms failover: a :class:`FailoverCoordinator` is built and
        every pair gets a :class:`LenderFailover` availability stage
        (call :meth:`arm_failover` after :meth:`attach_all`).
    failover:
        Recovery policy for DEAD lenders (required with schedules that
        contain crash/restart outages).
    health:
        Heartbeat discipline; defaults to
        :class:`~repro.core.resilience.failover.HealthParams`.
    fabric_fault:
        Optional per-hop loss model for the shared fabric legs
        (see :class:`~repro.net.fabric.Fabric`).
    obs:
        Observability bundle shared by all pairs: the first pair owns
        the timeline/observer (``attach_system``), the rest join as
        secondary trace processes (``attach_shared``).  Close with
        :meth:`finish_obs`.
    delivery:
        Optional unbound ``delivery`` stage template (e.g.
        :class:`~repro.node.reliable.ArqDelivery`); each pair gets its
        own copy.  ``None`` keeps the clean round trip.
    """

    def __init__(
        self,
        n_pairs: int,
        lender_assignment: Optional[Sequence[int]] = None,
        cluster: ClusterConfig | None = None,
        n_lenders: Optional[int] = None,
        lender_schedules: Optional[Dict[int, LenderFailureSchedule]] = None,
        failover: Optional[FailoverPolicy] = None,
        health: Optional[HealthParams] = None,
        fabric_fault=None,
        obs=None,
        obs_label_prefix: Optional[str] = None,
        delivery=None,
    ) -> None:
        if n_pairs < 1:
            raise ConfigError("need at least one pair")
        assignment = (
            list(lender_assignment) if lender_assignment is not None else list(range(n_pairs))
        )
        if len(assignment) != n_pairs:
            raise ConfigError("lender_assignment must have one entry per borrower")
        if any(a < 0 for a in assignment):
            raise ConfigError("lender indices must be >= 0")
        if lender_schedules and failover is None:
            needs_policy = any(
                s.first_failure() is not None for s in lender_schedules.values()
            )
            if needs_policy:
                raise ConfigError(
                    "lender_schedules with crash/restart outages need a "
                    "failover policy"
                )
        self.cluster = cluster or default_cluster_config()
        self.assignment = assignment
        self.sim = Simulator()
        fabric_rng = (
            RngStreams(self.cluster.seed)
            if fabric_fault is not None and fabric_fault.enabled
            else None
        )
        self.fabric = Fabric(self.cluster.link, fault=fabric_fault, rng=fabric_rng)
        self.fabric.add_switch("tor")

        assigned = sorted(set(assignment))
        if n_lenders is None:
            lender_ids = assigned
        else:
            if n_lenders < max(assigned) + 1:
                raise ConfigError(
                    f"n_lenders={n_lenders} but the assignment references "
                    f"lender {max(assigned)}"
                )
            lender_ids = list(range(n_lenders))
        schedules = dict(lender_schedules) if lender_schedules else {}
        unknown = sorted(set(schedules) - set(lender_ids))
        if unknown:
            raise ConfigError(f"lender_schedules for unknown lenders: {unknown}")

        from repro.node.node import Node

        # One physical lender node per lender id: borrowers assigned to
        # the same lender share its (real) memory bus.
        self.lender_nodes: Dict[int, Node] = {}
        for j in lender_ids:
            self.fabric.add_node(f"l{j}")
            self.fabric.connect(f"l{j}", "tor")
            node = Node(self.sim, self.cluster.lender)
            schedule = schedules.get(j)
            if schedule is not None and any(
                o.kind == "gray" for o in schedule.outages
            ):
                # Swap in the silently degrading bus: heartbeats keep
                # passing; only the service rate suffers.
                from repro.core.resilience.failover import GrayFailureDram

                node.dram = GrayFailureDram(
                    self.cluster.lender.dram, schedule, name=f"l{j}.dram"
                )
            self.lender_nodes[j] = node

        # Control plane: lender capacity is its assigned fan-in plus
        # one spare window, so every lender can host an evacuee.
        self.window_bytes = self.cluster.remote_region_bytes
        fanin = {j: assignment.count(j) for j in lender_ids}
        self.plane = ControlPlane()
        for j in lender_ids:
            self.plane.register(
                NodeInventory(
                    name=f"l{j}",
                    total_bytes=self.window_bytes * (fanin[j] + 1),
                )
            )
        for i in range(n_pairs):
            self.plane.register(
                NodeInventory(
                    name=f"b{i}",
                    total_bytes=self.window_bytes,
                    used_bytes=self.window_bytes,
                )
            )
        self.reservations = [
            self.plane.reserve_on(f"b{i}", f"l{assignment[i]}", self.window_bytes)
            for i in range(n_pairs)
        ]

        self.coordinator: Optional[FailoverCoordinator] = None
        if schedules:
            from repro.core.resilience.failover import HealthParams

            self.coordinator = FailoverCoordinator(
                self,
                policy=failover,
                health=health or HealthParams(),
                schedules=schedules,
            )

        self._obs = obs if obs is not None and getattr(obs, "enabled", False) else None
        prefix = obs_label_prefix or "beyond-rack"
        self.pairs: List[ThymesisFlowSystem] = []
        for i, lender in enumerate(assignment):
            borrower_id = f"b{i}"
            self.fabric.add_node(borrower_id)
            self.fabric.connect(borrower_id, "tor")
            label = f"{prefix}/b{i}"
            pair = ThymesisFlowSystem(
                self.cluster,
                sim=self.sim,
                obs=self._obs,
                obs_label=label if self._obs is not None else None,
                obs_shared=i > 0,
                wire=FabricWire(self.fabric, borrower_id, f"l{lender}"),
                availability=(
                    LenderFailover(self.coordinator, lender)
                    if self.coordinator is not None
                    else None
                ),
                delivery=copy.copy(delivery) if delivery is not None else None,
                lender=self.lender_nodes[lender],
                rng=RngStreams(self.cluster.seed).spawn(borrower_id),
            )
            self.pairs.append(pair)

    def attach_all(self) -> None:
        """Hotplug every pair's remote window (handshakes co-run)."""
        procs = [pair.attach() for pair in self.pairs]
        self.sim.run()
        for proc in procs:
            if not proc.ok:
                _ = proc.value

    def arm_failover(self) -> None:
        """Arm the lender health events.  Call after :meth:`attach_all`."""
        if self.coordinator is None:
            raise ConfigError(
                "deployment was built without lender_schedules; "
                "nothing to arm"
            )
        self.coordinator.install()

    def finish_obs(self) -> None:
        """Close out a shared-obs run (flush secondary pairs, then the
        primary pair's timeline/observer)."""
        if self._obs is None:
            return
        for pair in self.pairs[1:]:
            self._obs.finish_shared(pair, pair._obs_pid)
        self._obs.finish_system(self.pairs[0], self.pairs[0]._obs_pid)

    def lender_fanin(self) -> Dict[str, int]:
        """Borrowers per lender (incast degree)."""
        counts: Dict[str, int] = {}
        for pair in self.pairs:
            lender = str(pair.wire.lender_id)
            counts[lender] = counts.get(lender, 0) + 1
        return counts
