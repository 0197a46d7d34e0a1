"""Shared bandwidth server — memory bus and link serialization core.

A :class:`BandwidthServer` hands out transmission windows on a resource
that serializes at a fixed byte rate (a memory bus, a link PHY).  It is
*reservation-based*: ``reserve(nbytes, at)`` returns the absolute
``(start, finish)`` window for the transfer, maintained with a single
``next_free`` cursor — O(1) per transfer, no per-byte events.

FIFO service at line/packet granularity yields the equal-share
behaviour the paper observes for competing STREAM instances (Fig. 6):
interleaved requesters drain at the same rate.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.metrics import LogHistogram
from repro.units import Duration, Time, transfer_time_ps

__all__ = ["BandwidthServer"]


class BandwidthServer:
    """FIFO serialization at a fixed byte rate.

    Parameters
    ----------
    rate_bytes_per_s:
        Service rate.
    name:
        Diagnostic label.
    """

    __slots__ = (
        "rate",
        "name",
        "_next_free",
        "bytes_served",
        "transfers",
        "_busy_time",
        "queue_wait_hist",
        "sheds",
        "_service",
    )

    def __init__(self, rate_bytes_per_s: float, name: str = "bus") -> None:
        if rate_bytes_per_s <= 0:
            raise ValueError(f"rate must be positive, got {rate_bytes_per_s}")
        self.rate = float(rate_bytes_per_s)
        self.name = name
        self._next_free: Time = 0
        self.bytes_served = 0
        self.transfers = 0
        self._busy_time: Duration = 0
        # Per-transfer head-of-line wait (ps), tracked only when
        # observability asks for it (None = disabled, zero-cost path).
        self.queue_wait_hist: Optional[LogHistogram] = None
        self.sheds = 0
        # nbytes -> service time; the rate is fixed, and a datapath
        # moves a handful of distinct sizes.
        self._service: Dict[int, Duration] = {}

    def enable_queue_wait_tracking(self) -> LogHistogram:
        """Start log-bucketed tracking of per-transfer queueing waits."""
        if self.queue_wait_hist is None:
            self.queue_wait_hist = LogHistogram()
        return self.queue_wait_hist

    def service_time(self, nbytes: int) -> Duration:
        """Pure serialization time for *nbytes* (no queueing)."""
        duration = self._service.get(nbytes)
        if duration is None:
            duration = self._service[nbytes] = transfer_time_ps(nbytes, self.rate)
        return duration

    def reserve(self, nbytes: int, at: Time) -> tuple[Time, Time]:
        """Reserve a transfer of *nbytes* arriving at time *at*.

        Returns ``(start, finish)`` absolute times.  Transfers are
        served in reservation order (FIFO).
        """
        start = at if at > self._next_free else self._next_free
        duration = self._service.get(nbytes)
        if duration is None:
            duration = self.service_time(nbytes)
        finish = start + duration
        self._next_free = finish
        self.bytes_served += nbytes
        self.transfers += 1
        self._busy_time += duration
        if self.queue_wait_hist is not None:
            self.queue_wait_hist.record(start - at)
        return start, finish

    def queue_delay(self, at: Time) -> Duration:
        """Head-of-line wait a transfer arriving at *at* would see."""
        wait = self._next_free - at
        return wait if wait > 0 else 0

    def try_admit(self, policy, traffic_class, at: Time) -> bool:
        """Admission-control check for work arriving at *at*.

        Consults *policy* (duck-typed as
        :class:`repro.core.overload.AdmissionPolicy`) against the
        current reservation backlog; a rejection is counted in
        ``sheds`` and the caller must not reserve.  The policy belongs
        to the caller, so a server shared by several requesters never
        holds one requester's policy.
        """
        if policy.admit(traffic_class, 0, self.queue_delay(at)):
            return True
        self.sheds += 1
        return False

    def busy_until(self) -> Time:
        """Absolute time at which the server next becomes idle."""
        return self._next_free

    def utilization(self, now: Time) -> float:
        """Fraction of wall time spent serving, up to *now*."""
        if now <= 0:
            return 0.0
        busy = self._busy_time
        if self._next_free > now:
            busy -= self._next_free - now  # exclude reserved-but-future time
        return max(0.0, busy / now)
