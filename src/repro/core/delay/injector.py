"""The delay-injection module (paper section III-B).

Sits between the routing and multiplexer blocks of the borrower NIC
egress.  The published behaviour rewrites the AXI4-Stream handshake::

    READY_NEW = READY_OLD & (COUNTER % PERIOD == 0)

so a transaction proceeds only on FPGA cycles that are multiples of
PERIOD — "effectively, a transaction is allowed to proceed once every
PERIOD cycles if READY_OLD and VALID signals remain high".

:class:`DelayInjector` reproduces that contract event-analytically via
:class:`~repro.axi.ratelimit.SlotGate` (grant opportunities on an
absolute PERIOD-cycle grid, at most one transaction per opportunity),
and adds two extensions the paper names as future work:

* **distribution-driven** spacing (per-transaction random gaps), and
* **time-varying schedules** (PERIOD changes within a run).
"""

from __future__ import annotations

from typing import Optional

from repro.axi.ratelimit import SlotGate
from repro.config import DelayInjectionConfig, FpgaConfig
from repro.core.delay.distributions import DelayDistribution, make_delay_distribution
from repro.core.delay.schedule import DelaySchedule
from repro.sim import RngStreams
from repro.units import Duration, Time

__all__ = ["DelayInjector", "WaitTally"]


class WaitTally:
    """Count and total (ps) of gate waits, read like a sample series.

    What the injector keeps instead of one sample per transaction:
    ``len()``, ``sum()`` and ``mean()`` give what the series of waits
    would (the total is exact in integer ps).
    """

    __slots__ = ("count", "total")

    def __init__(self, count: int, total: int) -> None:
        self.count = count
        self.total = total

    def __len__(self) -> int:
        return self.count

    def sum(self) -> int:
        """Total wait (ps)."""
        return self.total

    def mean(self) -> float:
        """Mean wait (ps); NaN when empty."""
        return self.total / self.count if self.count else float("nan")


class DelayInjector:
    """Gates borrower-egress transactions per the paper's equation.

    Parameters
    ----------
    config:
        Injection configuration (PERIOD, distribution choice).
    fpga:
        FPGA timing (clock period = the COUNTER tick).
    rng:
        RNG streams (used only by distribution-driven injection).
    schedule:
        Optional time-varying PERIOD schedule; overrides
        ``config.period`` as time advances.
    empirical_cycles:
        Sample table for ``distribution="empirical"``.

    Notes
    -----
    ``admit(at)`` is the single entry point: given a transaction that
    becomes VALID at time *at*, it returns the absolute grant time.
    Ordering is preserved; grants are always aligned to the FPGA clock
    grid and at most one grant occurs per grid point.
    """

    def __init__(
        self,
        config: DelayInjectionConfig,
        fpga: FpgaConfig,
        rng: Optional[RngStreams] = None,
        schedule: Optional[DelaySchedule] = None,
        empirical_cycles=None,
    ) -> None:
        self.config = config
        self.fpga = fpga
        self.schedule = schedule
        self._t_cyc = fpga.clock_period
        self._gate = SlotGate(interval=config.period * self._t_cyc)
        self._current_period = config.period
        generator = (rng or RngStreams(0)).get(config.seed_stream)
        self._distribution: Optional[DelayDistribution] = make_delay_distribution(
            config, generator, empirical_cycles=empirical_cycles
        )
        # Distribution mode tracks its own last grant on the clock grid.
        self._last_grant: Time = -self._t_cyc
        # Running count and total (ps) of gate waits; an int total stays
        # exact, and no per-transaction sample is kept.
        self.wait_sum_ps = 0
        self.transactions = 0

    @property
    def waits(self) -> WaitTally:
        """Gate waits so far, read as ``len()``, ``sum()`` and ``mean()``."""
        return WaitTally(self.transactions, self.wait_sum_ps)

    @property
    def period(self) -> int:
        """PERIOD currently in force."""
        return self._current_period

    @property
    def interval_ps(self) -> Duration:
        """Current minimum inter-grant spacing in picoseconds (constant mode)."""
        return self._gate.interval

    def _ceil_to_clock(self, t: Time) -> Time:
        t_cyc = self._t_cyc
        return -(-t // t_cyc) * t_cyc

    def _admit_scheduled(self, at: Time) -> Time:
        """Grant under a time-varying schedule, piecewise per step.

        Matches the RTL semantics exactly: the gate opens on cycles
        that are multiples of the PERIOD *currently in force*, so a
        transaction queued across a schedule step immediately benefits
        from (or suffers) the new grid — grants are never pre-booked at
        a stale PERIOD.
        """
        schedule = self.schedule
        assert schedule is not None
        t = max(at, self._last_grant + self._t_cyc)
        for _ in range(1_000_000):  # bounded walk over schedule steps
            period = schedule.period_at(t)
            interval = period * self._t_cyc
            opening = -(-t // interval) * interval
            boundary = schedule.next_change_after(t)
            if boundary is not None and opening >= boundary:
                # No more openings of this step before the period
                # changes; continue the search under the next step.
                t = boundary
                continue
            self._current_period = period
            self._last_grant = opening
            return opening
        raise RuntimeError("schedule walk did not converge")  # pragma: no cover

    def admit(self, at: Time) -> Time:
        """Grant time for a transaction that asserts VALID at *at*.

        Constant mode: the next free PERIOD-grid point (the published
        equation).  Scheduled mode: the next opening of the grid in
        force, re-evaluated across schedule steps.  Distribution mode:
        spacing to the previous grant is drawn per transaction, then
        snapped to the clock grid.
        """
        if self.schedule is not None and self._distribution is None:
            grant = self._admit_scheduled(at)
        elif self._distribution is None:
            grant = self._gate.reserve(at)
        else:
            spacing = self._distribution.draw_cycles() * self._t_cyc
            earliest = max(at, self._last_grant + spacing)
            grant = self._ceil_to_clock(earliest)
            if grant <= self._last_grant:
                grant = self._last_grant + self._t_cyc
            self._last_grant = grant
        self.transactions += 1
        self.wait_sum_ps += grant - at
        return grant

    def intrinsic_grant(self, at: Time) -> Optional[Time]:
        """Earliest gate opening for VALID at *at* absent competing traffic.

        Pure — consults only the PERIOD grid (or schedule), never the
        reservation state — so observability can sub-split the gate
        wait: ``intrinsic_grant(at) - at`` is pure grid alignment (what
        a lone transaction would wait), and any further wait to the
        actual grant is backlog behind earlier grants
        (``injector.alignment_ps`` / ``injector.backlog_ps`` metrics).
        Returns ``None`` in distribution mode, where spacing is drawn
        per transaction and no fixed grid exists.
        """
        if self._distribution is not None:
            return None
        if self.schedule is not None:
            schedule = self.schedule
            t = at
            for _ in range(1_000_000):  # bounded walk over schedule steps
                period = schedule.period_at(t)
                interval = period * self._t_cyc
                opening = -(-t // interval) * interval
                boundary = schedule.next_change_after(t)
                if boundary is not None and opening >= boundary:
                    t = boundary
                    continue
                return opening
            raise RuntimeError("schedule walk did not converge")  # pragma: no cover
        interval = self._gate.interval
        return -(-at // interval) * interval

    def backlog_ps(self, at: Time) -> Duration:
        """Reservation backlog: how far grants are booked past *at*.

        The overload layer's admission policies use this as the
        estimated gate sojourn a new transaction would suffer — a pure
        read of the reservation cursor, so the decision is
        deterministic and costs nothing on the granting path.
        """
        if self._distribution is None and self.schedule is None:
            last = self._gate.busy_until() - self._gate.interval
        else:
            last = self._last_grant
        backlog = last - at
        return backlog if backlog > 0 else 0

    def mean_interval_ps(self) -> float:
        """Expected inter-grant spacing (exact for constant injection)."""
        if self._distribution is None:
            return float(self._current_period * self._t_cyc)
        return self._distribution.mean_cycles() * self._t_cyc
