"""Metastable failure study: the ``metastable`` experiment.

Overload control exists because retry amplification can make a
transient trigger permanent: a delay burst fills the MSHR window, every
attempt's retransmission timer expires while the attempt is still
queued at the delay gate, and the resulting retry storm keeps the gate
backlog above the RTO *after the trigger clears* — goodput pins at
zero although the offered load is well below capacity.  This is the
sustained-collapse shape of Bronson et al.'s metastable failures,
reproduced on the paper's testbed mechanics.

Mechanism (all integer arithmetic, so the knee is exact):

* the borrower pipeline is slot-limited at ``W`` outstanding misses,
  and every in-flight transaction keeps exactly one reservation queued
  at the delay gate (grants every ``PERIOD x t_cyc`` ps);
* with a software-armed ARQ timer (``transport.timer_from_send``),
  local gate queueing counts against the RTO, so once the standing
  backlog exceeds it — ``W x interval > rto`` — every response comes
  back late, is discarded by the strict timer, and the attempt is
  replayed: the window never drains and the backlog is self-sustaining;
* below the knee the same system is healthy: at the offered load the
  backlog is a few grants deep, far under the RTO.

A delay-schedule square pulse (PERIOD ``low -> high -> low``) is the
trigger.

The sweep compares the protection ladder under identical seeds:

``none``
    No protection.  Collapse sustains indefinitely after the trigger.
``deadline``
    Transaction deadlines bound each transaction's waste, but the
    freed window slots are refilled instantly from the open-loop
    arrival backlog, so the gate demand — and the collapse — persist.
``budget``
    Deadlines + a retry-budget token bucket.  Retransmissions are
    suppressed (storm suppression shows as ``overload.retry_budget``
    blame), demand falls just below gate capacity, and the backlog
    drains slowly — delayed, partial recovery.
``full``
    Budgets + queue-sojourn admission control (gate and lender bus) +
    a per-lender circuit breaker.  The breaker fails fast at issue,
    stale waiters are pruned by their deadlines at zero gate cost, the
    backlog drains promptly, and a half-open probe restores service —
    goodput returns to its pre-trigger level.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.calibration import paper_cluster_config
from repro.config import TransportConfig
from repro.core.delay import DelaySchedule
from repro.core.overload import OverloadConfig
from repro.errors import OverloadError
from repro.experiments.base import ExperimentResult
from repro.node.reliable import ReliableThymesisFlowSystem
from repro.perf import PointTask, SweepExecutor
from repro.sim import Timeout
from repro.units import microseconds, nanoseconds

__all__ = ["run"]

#: Protection ladder, baseline first (cumulative left to right).
POLICIES = ("none", "deadline", "budget", "full")

#: Injection PERIOD in the healthy regime: interval = 40 x 3.125 ns =
#: 125 ns, i.e. 8 M grants/s of gate capacity.
PERIOD_LOW = 40
#: Trigger PERIOD: interval 12.5 us, two orders past the arrival rate.
PERIOD_HIGH = 4000
#: Open-loop arrival spacing (150 ns = 6.67 M txn/s, 83% of capacity).
ARRIVAL_PS = int(nanoseconds(150))
#: ARQ timer.  The knee: W x interval = 128 x 125 ns = 16 us > rto, so
#: the collapsed state is self-sustaining; the healthy backlog (~1 us)
#: is far below it.
RTO_PS = int(microseconds(6))
#: Per-transaction deadline for the protected configs.
DEADLINE_PS = int(microseconds(40))


def _phases(quick: bool) -> Dict[str, int]:
    """Absolute simulation timeline (ps) for one run."""
    scale = 1 if quick else 4
    trigger_start = int(microseconds(200))
    trigger_stop = trigger_start + int(microseconds(100)) * scale
    horizon = trigger_stop + int(microseconds(300)) * scale
    return {
        "trigger_start": trigger_start,
        "trigger_stop": trigger_stop,
        "horizon": horizon,
        # Measurement windows: pre ends at the trigger; post leaves a
        # settling gap after it so "sustained" means sustained.
        "pre_start": int(microseconds(80)),
        "post_start": trigger_stop + int(microseconds(100)) * scale,
    }


def _overload_for(policy: str) -> Optional[OverloadConfig]:
    """The protection ladder, cumulative from nothing to everything."""
    if policy == "none":
        return None
    if policy == "deadline":
        return OverloadConfig(deadline_ps=DEADLINE_PS)
    if policy == "budget":
        return OverloadConfig(
            deadline_ps=DEADLINE_PS,
            retry_budget_ratio=0.05,
            retry_budget_burst=4,
        )
    if policy == "full":
        return OverloadConfig(
            deadline_ps=DEADLINE_PS,
            retry_budget_ratio=0.05,
            retry_budget_burst=4,
            admission="queue",
            admission_target_ps=RTO_PS,
            lender_admission=True,
            breaker_enabled=True,
            breaker_failure_threshold=5,
            breaker_reset_ps=int(microseconds(20)),
            breaker_backoff=2.0,
        )
    raise ValueError(f"unknown metastable policy {policy!r}")


def _txn(system, addr: int, completions: List[int], fails: Dict[str, int]):
    """One open-loop transaction; overload fail-fasts are terminal."""
    try:
        result = yield from system.remote_access(addr)
    except OverloadError as exc:
        fails[type(exc).__name__] = fails.get(type(exc).__name__, 0) + 1
        return
    completions.append(result.complete_time)


def _arrivals(
    system, horizon: int, completions: List[int], fails: Dict[str, int]
):
    """Open-loop Poisson-free arrival process (deterministic spacing).

    Open loop is the point: arrivals do not slow down when the system
    collapses, so the window-waiter backlog the protections must cope
    with is realistic.
    """
    sim = system.sim
    base = system.config.remote_region_base
    line = system.line_bytes
    n = 0
    while sim.now < horizon:
        addr = base + (n % 4096) * line
        sim.process(_txn(system, addr, completions, fails), name=f"txn{n}")
        n += 1
        fails["arrivals"] = n
        yield Timeout(sim, ARRIVAL_PS)


def _goodput(completions: Sequence[int], start: int, stop: int) -> float:
    """Completed transactions per second over ``[start, stop)``."""
    done = sum(1 for t in completions if start <= t < stop)
    return done * 1e12 / (stop - start)


def _metastable_point(policy: str, seed: int, quick: bool, obs=None) -> dict:
    """One protection-ladder rung (worker-runnable)."""
    phases = _phases(quick)
    config = paper_cluster_config(period=PERIOD_LOW, seed=seed).with_transport(
        TransportConfig(
            max_retries=1_000_000,  # exhaustion must come from the overload layer
            rto=RTO_PS,
            backoff=1.0,  # fixed timer: the storm is undamped by design
            max_rto=RTO_PS,
            timer_from_send=True,  # gate queueing counts against the RTO
            # Deadline abandonment composes with selective repeat only:
            # under go-back-N an abandoned seq leaves a permanent gap at
            # the receiver and every later seq is discarded as
            # out-of-order — the transport wedges instead of recovering.
            selective_repeat=True,
        )
    )
    schedule = DelaySchedule(
        [
            (0, PERIOD_LOW),
            (phases["trigger_start"], PERIOD_HIGH),
            (phases["trigger_stop"], PERIOD_LOW),
        ]
    )
    system = ReliableThymesisFlowSystem(
        config,
        schedule=schedule,
        obs=obs,
        overload=_overload_for(policy),
        obs_label=f"policy={policy}",
    )
    system.attach_or_raise(n_probes=8)
    completions: List[int] = []
    fails: Dict[str, int] = {}
    system.sim.process(
        _arrivals(system, phases["horizon"], completions, fails),
        name="arrivals",
    )
    system.sim.run(until=phases["horizon"])
    if obs is not None:
        obs.finish_system(system)
    pre = _goodput(completions, phases["pre_start"], phases["trigger_start"])
    trig = _goodput(completions, phases["trigger_start"], phases["trigger_stop"])
    post = _goodput(completions, phases["post_start"], phases["horizon"])
    breaker = system.overload.breaker
    return {
        "arrivals": fails.get("arrivals", 0),
        "completed": len(completions),
        "fails": {k: v for k, v in sorted(fails.items()) if k != "arrivals"},
        "retransmissions": system.transport.stats.retransmissions,
        "sheds": sum(system.overload.shed_by_class.values())
        + system.lender.dram.bus.sheds,
        "breaker_trips": breaker.trips if breaker is not None else 0,
        "goodput_pre": pre,
        "goodput_trigger": trig,
        "goodput_post": post,
    }


def run(
    policies: Sequence[str] = POLICIES,
    seed: int = 1234,
    quick: bool = False,
    obs=None,
    workers: int = 1,
    cache=None,
) -> ExperimentResult:
    """Sweep the protection ladder across the metastable trigger.

    Every rung runs the same seed, the same open-loop arrivals and the
    same trigger; only the overload-control configuration differs, so
    the goodput columns are directly comparable.  ``quick`` shrinks the
    trigger and the post-trigger observation window (the CI smoke shape).
    """
    if obs is not None:
        outputs = [_metastable_point(p, seed, quick, obs=obs) for p in policies]
    else:
        tasks = [
            PointTask(
                key=f"metastable/seed={seed}/quick={quick}/policy={p}",
                fn=_metastable_point,
                kwargs={"policy": p, "seed": seed, "quick": quick},
            )
            for p in policies
        ]
        outputs = SweepExecutor(workers=workers, cache=cache).map(tasks)

    rows = []
    by_policy: Dict[str, dict] = {}
    for policy, out in zip(policies, outputs):
        by_policy[policy] = out
        ratio = (
            out["goodput_post"] / out["goodput_pre"]
            if out["goodput_pre"] > 0
            else 0.0
        )
        rows.append(
            (
                policy,
                out["arrivals"],
                out["completed"],
                out["retransmissions"],
                out["sheds"],
                out["breaker_trips"],
                round(out["goodput_pre"] / 1e6, 3),
                round(out["goodput_trigger"] / 1e6, 3),
                round(out["goodput_post"] / 1e6, 3),
                round(ratio, 3),
            )
        )

    def ratio(policy: str) -> float:
        out = by_policy.get(policy)
        if not out or out["goodput_pre"] <= 0:
            return 0.0
        return out["goodput_post"] / out["goodput_pre"]

    none_out = by_policy.get("none")
    full_out = by_policy.get("full")
    checks = {
        "every config is healthy before the trigger": all(
            out["goodput_pre"] > 0.5e12 / ARRIVAL_PS
            for out in by_policy.values()
        ),
        "unprotected goodput collapses during the trigger": (
            none_out is not None
            and none_out["goodput_trigger"] < 0.3 * none_out["goodput_pre"]
        ),
        "unprotected collapse sustains after the trigger clears": (
            none_out is not None and ratio("none") < 0.3
        ),
        "budgets+breaker+shedding recover post-trigger goodput": (
            full_out is not None and ratio("full") > 0.9
        ),
        "retry budget suppresses the storm": (
            none_out is None
            or "budget" not in by_policy
            or by_policy["budget"]["retransmissions"]
            < 0.2 * none_out["retransmissions"]
        ),
        "protection is free below the knee": all(
            abs(out["goodput_pre"] - by_policy[policies[0]]["goodput_pre"])
            < 0.05 * by_policy[policies[0]]["goodput_pre"]
            for out in by_policy.values()
        ),
    }
    return ExperimentResult(
        experiment="metastable",
        title=(
            "Extension: metastable failure under retry amplification "
            f"({len(rows)} protection configs)"
        ),
        columns=(
            "policy",
            "arrivals",
            "completed",
            "retx",
            "sheds",
            "breaker_trips",
            "goodput_pre_Mtx_s",
            "goodput_trigger_Mtx_s",
            "goodput_post_Mtx_s",
            "post_ratio",
        ),
        rows=rows,
        checks=checks,
        notes=(
            "A 100 us PERIOD pulse (40 -> 4000) fills the MSHR window; "
            "with the ARQ timer armed at attempt issue the standing gate "
            "backlog (W x interval = 16 us) exceeds the 6 us RTO, every "
            "response returns late and is discarded, and the retry storm "
            "sustains zero goodput after the trigger clears.  Deadlines "
            "bound per-transaction waste but open-loop replacements keep "
            "the gate pinned; retry budgets drop demand below capacity so "
            "the backlog drains slowly; the breaker + admission control "
            "fail fast at issue, let the backlog drain, and a half-open "
            "probe restores service.  Fail-fast intervals appear as "
            "backoff blame on overload.deadline / overload.retry_budget / "
            "overload.shed / overload.breaker in --attrib-out sidecars."
        ),
    )
