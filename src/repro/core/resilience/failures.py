"""Failure injection beyond delay: link flaps and blackout windows.

The paper motivates delay injection by noting that network delays
"can arise due to multiple performance (such as network congestion)
and reliability (such as link repair) failures" (section I).  Delay is
the *manifestation* it injects; this module injects the *causes*
directly — transient link blackouts (flaps, repair windows) — and
models the borrower-side consequence the paper's resilience discussion
turns on: an outstanding remote access that stalls longer than the
processor/OS tolerance crashes the node, one that resumes in time is
just (severe) delay.

:class:`LinkFailureSchedule` describes down windows; the
:class:`LinkBlackout` availability stage stalls remote transactions
across them and turns a stall beyond the host's tolerance into a crash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Sequence, Tuple

from repro.config import ClusterConfig
from repro.errors import ConfigError, HostCrash, ReproError
from repro.node.cluster import ThymesisFlowSystem
from repro.sim import Timeout
from repro.units import Duration, Time, format_time, milliseconds

__all__ = ["HostCrash", "LinkFailureSchedule", "LinkBlackout"]


@dataclass(frozen=True)
class LinkFailureSchedule:
    """Down windows of the borrower-lender link.

    Attributes
    ----------
    outages:
        ``(start_ps, duration_ps)`` windows during which no transaction
        can traverse the link; transactions in flight stall until the
        window ends.
    """

    outages: Tuple[Tuple[Time, Duration], ...] = ()

    def __post_init__(self) -> None:
        last_end = -1
        for start, duration in self.outages:
            if start < 0 or duration <= 0:
                raise ReproError("outage windows need start >= 0, duration > 0")
            if start <= last_end:
                raise ReproError("outage windows must be disjoint and ordered")
            last_end = start + duration

    @classmethod
    def periodic(
        cls, first_start: Time, duration: Duration, gap: Duration, count: int
    ) -> "LinkFailureSchedule":
        """Evenly spaced flaps (e.g. a misbehaving transceiver)."""
        if count < 1:
            raise ReproError("count must be >= 1")
        outages = tuple(
            (first_start + i * (duration + gap), duration) for i in range(count)
        )
        return cls(outages=outages)

    def stall_until(self, t: Time) -> Time:
        """When a transaction attempting the link at *t* can proceed."""
        for start, duration in self.outages:
            if start <= t < start + duration:
                return start + duration
            if t < start:
                break
        return t

    def total_downtime(self) -> Duration:
        """Sum of outage durations."""
        return sum(duration for _, duration in self.outages)


class LinkBlackout:
    """Availability stage: the link suffers scheduled blackouts.

    Parameters
    ----------
    failures:
        Link down windows.
    stall_tolerance:
        Longest stall the host survives; a transaction stalled beyond
        this checkstops the host with :class:`HostCrash` (the paper's
        crash mode).  Defaults to 32 ms — an OpenCAPI-class completion
        timeout.
    """

    def __init__(
        self,
        failures: LinkFailureSchedule,
        stall_tolerance: Duration = milliseconds(32),
    ) -> None:
        if stall_tolerance <= 0:
            raise ConfigError("stall_tolerance must be positive")
        self.failures = failures
        self.stall_tolerance = stall_tolerance
        self.stalls_observed = 0
        self.longest_stall: Duration = 0

    def hold(self, system, addr: int, kind) -> Generator:
        """Stall across a blackout; returns whether it stalled."""
        sim = system.sim
        stall = self.failures.stall_until(sim.now) - sim.now
        if stall <= 0:
            return False
        self.stalls_observed += 1
        if stall > self.longest_stall:
            self.longest_stall = stall
        if stall > self.stall_tolerance:
            reason = (
                f"remote access stalled {format_time(stall)} > tolerance "
                f"{format_time(self.stall_tolerance)} (link blackout)"
            )
            system.crash(reason)
            raise HostCrash(reason)
        yield Timeout(sim, stall)
        return True


def blackout_survival_sweep(
    durations: Sequence[Duration],
    config: ClusterConfig,
    stall_tolerance: Duration = milliseconds(32),
    n_lines: int = 8000,
    blackout_at: Time = 50_000_000,  # 50 us: after attach, mid-burst
) -> List[dict]:
    """Survive/crash boundary versus blackout duration.

    For each duration: attach cleanly, start a streaming burst, drop
    the link mid-run for that long, and report whether the host
    survived and the completion-time inflation when it did.
    """
    from repro.engine import AccessPhase, DesPhaseDriver, PhaseProgram

    rows: List[dict] = []
    for duration in durations:
        failures = LinkFailureSchedule(outages=((blackout_at, duration),))
        blackout = LinkBlackout(failures, stall_tolerance=stall_tolerance)
        system = ThymesisFlowSystem(config, availability=blackout)
        system.attach_or_raise()
        program = PhaseProgram("burst").add(
            AccessPhase("stream", n_lines=n_lines, concurrency=128, write_fraction=0.5)
        )
        driver = DesPhaseDriver(system, program)
        proc = driver.start()
        system.sim.run()
        crashed = not proc.ok and isinstance(proc._exc, HostCrash)  # noqa: SLF001
        if not proc.ok and not crashed:
            _ = proc.value  # unexpected failure: surface it
        rows.append(
            {
                "blackout_ps": int(duration),
                "survived": not crashed,
                "duration_ps": driver.result.duration_ps if proc.ok else None,
                "longest_stall_ps": blackout.longest_stall,
            }
        )
    return rows
