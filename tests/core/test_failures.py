"""Tests for link-failure injection (blackouts, flaps, host crashes)."""

import pytest

from repro.calibration import paper_cluster_config
from repro.core.resilience import (
    HostCrash,
    LinkBlackout,
    LinkFailureSchedule,
    blackout_survival_sweep,
)
from repro.engine import AccessPhase, DesPhaseDriver, PhaseProgram
from repro.errors import ConfigError, ReproError
from repro.node.cluster import ThymesisFlowSystem
from repro.units import microseconds, milliseconds


def burst(n=8000):
    return PhaseProgram("burst").add(
        AccessPhase("stream", n_lines=n, concurrency=128, write_fraction=0.5)
    )


class TestLinkFailureSchedule:
    def test_stall_until_inside_window(self):
        sched = LinkFailureSchedule(outages=((100, 50),))
        assert sched.stall_until(120) == 150
        assert sched.stall_until(99) == 99
        assert sched.stall_until(150) == 150  # boundary: link back up

    def test_periodic_factory(self):
        sched = LinkFailureSchedule.periodic(first_start=0, duration=10, gap=90, count=3)
        assert sched.outages == ((0, 10), (100, 10), (200, 10))
        assert sched.total_downtime() == 30

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ReproError):
            LinkFailureSchedule(outages=((0, 100), (50, 100)))

    def test_unordered_rejected(self):
        with pytest.raises(ReproError):
            LinkFailureSchedule(outages=((100, 10), (0, 10)))

    def test_invalid_window(self):
        with pytest.raises(ReproError):
            LinkFailureSchedule(outages=((0, 0),))


class TestFailureInjectedSystem:
    def _system(self, outage_ms, tolerance_ms=32):
        # Blackout at 50 us: after attach (~5 us) and inside the ~100 us
        # burst the tests drive.
        failures = LinkFailureSchedule(
            outages=((microseconds(50), milliseconds(outage_ms)),)
        )
        system = ThymesisFlowSystem(
            paper_cluster_config(period=1),
            availability=LinkBlackout(failures, stall_tolerance=milliseconds(tolerance_ms)),
        )
        system.attach_or_raise()
        return system

    def test_short_blackout_is_delay_not_crash(self):
        system = self._system(outage_ms=5)
        result = DesPhaseDriver(system, burst()).run_to_completion()
        assert system.availability.stalls_observed > 0
        assert system.availability.longest_stall <= milliseconds(5)
        # The run absorbed the outage as extra completion time.
        assert result.duration_ps > milliseconds(5)

    def test_long_blackout_crashes_host(self):
        system = self._system(outage_ms=40, tolerance_ms=32)
        driver = DesPhaseDriver(system, burst())
        proc = driver.start()
        system.sim.run()
        assert not proc.ok
        with pytest.raises(HostCrash):
            _ = proc.value

    def test_no_failures_behaves_like_base_system(self):
        clean = ThymesisFlowSystem(
            paper_cluster_config(period=1), availability=LinkBlackout(LinkFailureSchedule())
        )
        clean.attach_or_raise()
        result = DesPhaseDriver(clean, burst()).run_to_completion()
        assert clean.availability.stalls_observed == 0
        assert result.lines == 8000

    def test_flap_series_all_absorbed(self):
        failures = LinkFailureSchedule.periodic(
            first_start=microseconds(20),
            duration=microseconds(10),
            gap=microseconds(15),
            count=5,
        )
        system = ThymesisFlowSystem(
            paper_cluster_config(period=1), availability=LinkBlackout(failures)
        )
        system.attach_or_raise()
        result = DesPhaseDriver(system, burst()).run_to_completion()
        assert system.availability.stalls_observed > 0
        assert result.lines == 8000

    def test_invalid_tolerance(self):
        with pytest.raises(ConfigError):
            LinkBlackout(LinkFailureSchedule(), stall_tolerance=0)


class TestSurvivalSweep:
    def test_boundary_at_tolerance(self):
        rows = blackout_survival_sweep(
            durations=(milliseconds(1), milliseconds(10), milliseconds(64)),
            config=paper_cluster_config(period=1),
            stall_tolerance=milliseconds(32),
            n_lines=8000,
        )
        outcome = {r["blackout_ps"]: r["survived"] for r in rows}
        assert outcome[milliseconds(1)] is True
        assert outcome[milliseconds(10)] is True
        assert outcome[milliseconds(64)] is False

    def test_survivor_duration_includes_blackout(self):
        (row,) = blackout_survival_sweep(
            durations=(milliseconds(10),),
            config=paper_cluster_config(period=1),
            n_lines=8000,
        )
        assert row["survived"]
        assert row["duration_ps"] > milliseconds(10)
        assert row["longest_stall_ps"] <= milliseconds(10)
