"""Overload control threaded through the reliable datapath.

End-to-end behavior of the protection ladder on the metastable-failure
scenario: the unprotected transport collapses and stays collapsed, each
protection removes its slice of the damage, and the full ladder
recovers post-trigger goodput.  Also pins the two invariants the
attribution story depends on — observability must not perturb the
simulation, and blame rows must tile every request envelope exactly.
"""

import json

import pytest

from repro.experiments import metastable
from repro.experiments.metastable import POLICIES, _metastable_point
from repro.obs import Observability
from repro.obs.attrib import extract_attribution

SEED = 1234


@pytest.fixture(scope="module")
def ladder():
    """One quick DES point per protection policy, shared by the tests."""
    return {
        policy: _metastable_point(policy, SEED, quick=True)
        for policy in POLICIES
    }


class TestProtectionLadder:
    def test_every_policy_is_healthy_before_the_trigger(self, ladder):
        pre = {p: ladder[p]["goodput_pre"] for p in POLICIES}
        assert len(set(pre.values())) == 1  # protection is free below the knee
        assert pre["none"] > 0

    def test_unprotected_collapse_sustains_after_the_trigger(self, ladder):
        none = ladder["none"]
        assert none["goodput_post"] == 0.0  # metastable: trigger gone, damage stays
        assert none["retransmissions"] > 1_000  # the sustaining retry storm
        assert none["fails"] == {}  # nothing fails fast; everything just waits

    def test_deadline_bounds_waste_without_recovering(self, ladder):
        deadline = ladder["deadline"]
        assert deadline["fails"].get("DeadlineExceeded", 0) > 0
        assert deadline["retransmissions"] < ladder["none"]["retransmissions"]
        # Open-loop arrivals replace every abandoned transaction, so the
        # gate stays pinned: deadlines alone do not restore goodput.
        assert deadline["goodput_post"] == 0.0

    def test_retry_budget_suppresses_the_storm(self, ladder):
        budget = ladder["budget"]
        assert budget["fails"].get("RetryBudgetExhausted", 0) > 0
        assert (
            budget["retransmissions"]
            < 0.2 * ladder["none"]["retransmissions"]
        )

    def test_full_ladder_recovers_post_trigger_goodput(self, ladder):
        full = ladder["full"]
        assert full["goodput_post"] >= 0.9 * full["goodput_pre"]
        assert full["sheds"] > 0
        assert full["breaker_trips"] > 0
        assert full["retransmissions"] < 20
        assert full["completed"] > ladder["none"]["completed"]

    def test_arrivals_are_identical_across_policies(self, ladder):
        # Same seed, same open-loop arrival process: the ladder varies
        # only in how the datapath disposes of the work.
        assert len({ladder[p]["arrivals"] for p in POLICIES}) == 1


class TestObservabilityInertness:
    """Regression: tracing once *changed* the dynamics.

    With ``timer_from_send`` an ARQ timer can expire while the attempt
    is still gate-queued (wake < grant); the retransmit-path span then
    covered a negative interval, SpanRecord raised, and the exception
    silently killed the transaction process — a traced run retried 128
    times where the plain run retried 2407.  Spans are now clamped;
    traced and untraced runs must be bit-identical.
    """

    @pytest.mark.parametrize("policy", ["none", "full"])
    def test_traced_run_matches_plain_run(self, policy, ladder):
        obs = Observability(trace=True, metrics=True, attrib=True)
        traced = _metastable_point(policy, SEED, quick=True, obs=obs)
        assert traced == ladder[policy]


class TestBlameTiling:
    def test_blame_rows_tile_every_request_exactly(self):
        """mismatched == 0: fail-fast intervals are accounted, not lost."""
        obs = Observability(trace=True, metrics=True, attrib=True)
        _metastable_point("full", SEED, quick=True, obs=obs)
        results = extract_attribution(obs.tracer)
        assert results, "no attribution extracted"
        assert sum(r.requests for r in results) > 0
        assert sum(r.mismatched for r in results) == 0
        resources = set()
        for r in results:
            resources.update(r.resources_ps)
        # Protections that consume time show up as blamed resources
        # (breaker/shed fail-fasts are instantaneous at issue, so they
        # contribute counts, not picoseconds).
        assert {"overload.deadline", "overload.retry_budget"} <= resources

    def test_unprotected_run_also_tiles(self):
        obs = Observability(trace=True, metrics=True, attrib=True)
        _metastable_point("none", SEED, quick=True, obs=obs)
        assert sum(r.mismatched for r in extract_attribution(obs.tracer)) == 0


def _dump(result):
    return json.dumps(
        {"rows": result.rows, "checks": result.checks, "columns": list(result.columns)},
        sort_keys=True,
        default=str,
    )


class TestExperimentHarness:
    def test_quick_run_passes_all_checks(self):
        result = metastable.run(quick=True, workers=1)
        assert result.checks and result.passed, result.failed_checks()

    def test_parallel_run_matches_serial_bit_for_bit(self):
        serial = metastable.run(quick=True, workers=1)
        parallel = metastable.run(quick=True, workers=4)
        assert _dump(serial) == _dump(parallel)
