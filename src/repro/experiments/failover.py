"""Lender failure domains: the ``failover`` experiment (fig4 family).

The paper's resilience story (section IV-C) is binary — the link
attaches or the borrower checkstops.  This extension makes the *lender
host* the failure domain: on a
:class:`~repro.node.multipair.BeyondRackDeployment`, lender 0 fails
under each failover policy while its borrowers stream, and the sweep
reports per-borrower survival outcome, detection lag, evacuation
stall, goodput dip, and p99 inflation versus a clean run of the same
seed.  ``repro obs attrib``/``diff`` decompose the recovery cost
through the blame rows the coordinator records on ``failover.*``
resources.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.resilience import failover_sweep
from repro.experiments.base import ExperimentResult

__all__ = ["run"]

#: Policies every run demonstrates, in baseline-first order.
DEFAULT_POLICIES = ("crash", "quarantine", "evacuate")

#: Full-mode repair-window ladder (ms); quick mode pins one crash.
DEFAULT_MTTR_MS = (0.1, 0.5, 2.0)


def run(
    policies: Sequence[str] = DEFAULT_POLICIES,
    kinds: Optional[Sequence[str]] = None,
    mtbf_ms: float = 0.0,
    mttr_ms: Optional[Sequence[float]] = None,
    lender_counts: Sequence[int] = (2,),
    n_pairs: int = 2,
    loss: float = 0.0,
    quick: bool = False,
    obs=None,
    workers: int = 1,
    cache=None,
) -> ExperimentResult:
    """Sweep lender failures x failover policy x lender count.

    Quick mode injects one seeded crash on lender 0 and runs the three
    policies — the CI demonstration shape; full mode adds
    restart-after-downtime failures across a repair-window ladder.
    ``mtbf_ms > 0`` draws outage sequences from named RNG streams
    instead of the single pinned failure.  ``loss`` additionally makes
    every shared-fabric hop lossy (chaos mode).
    """
    if kinds is None:
        kinds = ("crash",) if quick else ("crash", "restart")
    ladder = tuple(mttr_ms) if mttr_ms is not None else (
        (0.5,) if quick else DEFAULT_MTTR_MS
    )
    n_lines = 12_000 if quick else 40_000
    points = []
    events = []
    for mttr in ladder:
        report = failover_sweep(
            policies=policies,
            kinds=kinds,
            mtbf_ms=mtbf_ms,
            mttr_ms=mttr,
            lender_counts=lender_counts,
            n_pairs=n_pairs,
            n_lines=n_lines,
            loss=loss,
            obs=obs,
            workers=workers,
            cache=cache,
        )
        points.extend(report.points)
        events.extend(report.events)

    rows = []
    for p in points:
        rows.append(
            (
                p.policy,
                p.kind,
                p.mttr_ms,
                p.n_lenders,
                p.borrower,
                p.lender,
                p.outcome,
                round(p.detect_ms, 3) if p.detect_ms is not None else "-",
                round(p.evac_stall_ms, 3) if p.evac_stall_ms is not None else "-",
                p.pages_evacuated if p.pages_evacuated else "-",
                p.new_lender or "-",
                round(p.goodput_dip, 3) if p.goodput_dip is not None else "-",
                round(p.p99_inflation, 3) if p.p99_inflation is not None else "-",
            )
        )

    def affected(policy: str, kind: str = "crash"):
        return [
            p
            for p in points
            if p.policy == policy and p.kind == kind and p.lender == "l0"
        ]

    crash_pts = affected("crash")
    quarantine_pts = affected("quarantine")
    evac_pts = affected("evacuate")
    checks = {
        "crash-borrower policy checkstops the affected borrower": bool(
            crash_pts
        ) and all(p.outcome == "crashed" for p in crash_pts),
        "quarantine policy survives on local memory": bool(quarantine_pts) and all(
            p.outcome == "degraded" and p.degraded_accesses > 0
            for p in quarantine_pts
        ),
        "evacuation re-reserves on a surviving lender": bool(evac_pts) and all(
            p.outcome == "evacuated"
            and p.new_lender not in (None, p.lender)
            and p.pages_evacuated > 0
            for p in evac_pts
        ),
        "evacuation stall is measured and positive": all(
            p.evac_stall_ms is not None and p.evac_stall_ms > 0 for p in evac_pts
        ),
        "unaffected borrowers never fail over": all(
            p.outcome == "ok" for p in points if p.lender != "l0"
        ),
        "recovery beats checkstop on goodput": (
            not crash_pts
            or not evac_pts
            or min(p.goodput_dip for p in crash_pts)
            > max(p.goodput_dip for p in evac_pts)
        ),
    }
    return ExperimentResult(
        experiment="failover",
        title=(
            "Extension: lender failure domains "
            f"(health-checked failover, {len(points)} borrower outcomes)"
        ),
        columns=(
            "policy",
            "kind",
            "mttr_ms",
            "lenders",
            "borrower",
            "lender",
            "outcome",
            "detect_ms",
            "evac_stall_ms",
            "pages",
            "new_lender",
            "goodput_dip",
            "p99_inflation",
        ),
        rows=rows,
        checks=checks,
        notes=(
            "Lender 0 fails mid-stream; the control plane detects it via "
            "missed heartbeat leases (SUSPECT after 1 miss, DEAD after 3) "
            "and applies the policy: the paper's checkstop baseline loses "
            "the borrower, quarantine degrades it to local memory, and "
            "evacuation re-reserves on a surviving lender and replays the "
            "window's touched pages over the shared fabric before remote "
            "service resumes.  Detection lag and evacuation stall are paid "
            "at real simulated cost and appear as blame rows on "
            "failover.detect / failover.evacuation in --attrib-out sidecars."
        ),
    )
